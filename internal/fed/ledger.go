package fed

import "fmt"

// Ledger is the federation-wide contribution ledger: every routing
// decision is counted as it happens (Submitted, Routed, RoutedWork,
// Fed), and the per-cluster accounting columns (Psi, Value, Executed)
// are refreshed from the member engines whenever the ledger is read
// through Federation.Ledger. The refreshed columns make the paper's
// fairness metrics computable at both levels with internal/metrics
// unchanged: per cluster from Psi[c], federation-wide from
// FederationPsi.
//
// RoutedWork records job sizes, which delegation policies never see:
// the ledger is accounting — like the simulator's ψsp accounts, it
// tallies work only the executing side would eventually observe —
// not scheduler input.
//
// A checkpoint carries the three fields that are history; where every
// live job sits is the members' record, and Restore replays it.
type Ledger struct {
	Clusters int `json:"-"`
	Orgs     int `json:"-"`
	// Submitted counts accepted jobs: the next sequence number.
	Submitted int64 `json:"submitted"`
	// Routed[origin][target] counts jobs submitted at origin and routed
	// to target; the diagonal is the non-delegated traffic.
	Routed [][]int64 `json:"-"`
	// RoutedWork is Routed weighted by job size (work units).
	RoutedWork [][]int64 `json:"-"`
	// Fed[c] counts jobs fed to cluster c (the column sums of Routed).
	Fed []int64 `json:"-"`
	// Migrations counts re-delegations of queued jobs (Σ Migrated).
	Migrations int64 `json:"-"`
	// Migrated[from][to] counts queued jobs withdrawn from `from` and
	// re-fed to `to` at an exchange refresh. Routed/RoutedWork/Fed are
	// re-pointed at migration time (the job's origin row moves a count
	// from the old column to the new), so they always describe current
	// placement; Migrated records the churn those re-pointings erase.
	Migrated [][]int64 `json:"migrated"`
	// MigratedWork is Migrated weighted by job size (work units).
	MigratedWork [][]int64 `json:"migrated_work"`
	// Psi[c][o] is organization o's ψsp earned at cluster c, refreshed
	// at the federation clock.
	Psi [][]int64 `json:"-"`
	// Value[c] is cluster c's coalition value Σ_o Psi[c][o].
	Value []int64 `json:"-"`
	// Executed[c] is cluster c's executed unit slots.
	Executed []int64 `json:"-"`
}

func newLedger(clusters, orgs int) *Ledger {
	l := &Ledger{
		Clusters:     clusters,
		Orgs:         orgs,
		Routed:       make([][]int64, clusters),
		RoutedWork:   make([][]int64, clusters),
		Fed:          make([]int64, clusters),
		Psi:          make([][]int64, clusters),
		Value:        make([]int64, clusters),
		Executed:     make([]int64, clusters),
		Migrated:     make([][]int64, clusters),
		MigratedWork: make([][]int64, clusters),
	}
	for c := 0; c < clusters; c++ {
		l.Routed[c] = make([]int64, clusters)
		l.RoutedWork[c] = make([]int64, clusters)
		l.Psi[c] = make([]int64, orgs)
		l.Migrated[c] = make([]int64, clusters)
		l.MigratedWork[c] = make([]int64, clusters)
	}
	return l
}

// validate checks the migration matrices of a deserialized ledger — all
// of it that Restore reads — against the restoring configuration.
func (l *Ledger) validate(clusters int) error {
	if l == nil || len(l.Migrated) != clusters || len(l.MigratedWork) != clusters {
		return fmt.Errorf("checkpoint has no ledger, or its migration columns are truncated")
	}
	for c := 0; c < clusters; c++ {
		if len(l.Migrated[c]) != clusters || len(l.MigratedWork[c]) != clusters {
			return fmt.Errorf("ledger migration row %d truncated", c)
		}
	}
	return nil
}

// route records one delegation decision: a job of the given size,
// submitted at origin, goes to target.
func (l *Ledger) route(origin, target int, size int64) {
	l.Routed[origin][target]++
	l.RoutedWork[origin][target] += size
	l.Fed[target]++
}

// migrate records one re-delegation: the job (submitted at origin,
// sitting queued at from) moves to to. The placement matrices are
// re-pointed so routed==fed and assigned-work==held-work keep holding,
// and the churn is tallied separately in Migrated/MigratedWork.
func (l *Ledger) migrate(origin, from, to int, size int64) {
	l.Routed[origin][from]--
	l.Routed[origin][to]++
	l.RoutedWork[origin][from] -= size
	l.RoutedWork[origin][to] += size
	l.Fed[from]--
	l.Fed[to]++
	l.Migrations++
	l.Migrated[from][to]++
	l.MigratedWork[from][to] += size
}

// sync refreshes the accounting columns from the live member engines.
func (l *Ledger) sync(f *Federation) {
	for c, m := range f.members {
		res := m.eng.Result()
		copy(l.Psi[c], res.Psi)
		l.Value[c] = res.Value
		l.Executed[c] = res.Ptot
	}
}

// Offloaded returns the number of jobs routed away from their origin.
func (l *Ledger) Offloaded() int64 {
	var n int64
	for o, row := range l.Routed {
		for t, count := range row {
			if t != o {
				n += count
			}
		}
	}
	return n
}

// OffloadedFraction returns the fraction of routed jobs that crossed
// cluster boundaries (0 when nothing was routed yet).
func (l *Ledger) OffloadedFraction() float64 {
	var total int64
	for _, n := range l.Fed {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(l.Offloaded()) / float64(total)
}

// FederationPsi returns the federation-wide ψ-vector: each
// organization's ψsp summed over every cluster it consumed service at.
// Feed it to internal/metrics for federation-level Δψ.
func (l *Ledger) FederationPsi() []int64 {
	out := make([]int64, l.Orgs)
	for _, psi := range l.Psi {
		for o, v := range psi {
			out[o] += v
		}
	}
	return out
}

// FederationValue returns the federation-wide coalition value Σ_c v_c.
func (l *Ledger) FederationValue() int64 {
	var v int64
	for _, x := range l.Value {
		v += x
	}
	return v
}

// TotalExecuted returns the executed unit slots across the federation —
// the federation-wide p_tot for Δψ/p_tot.
func (l *Ledger) TotalExecuted() int64 {
	var u int64
	for _, x := range l.Executed {
		u += x
	}
	return u
}
