package fed_test

import (
	"bytes"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"repro/internal/fed"
	"repro/internal/model"
	"repro/internal/shapley"
)

// sums2 builds a two-cluster summary pair for direct policy unit tests.
func sums2(a, b fed.Summary) []fed.Summary {
	a.Cluster, b.Cluster = 0, 1
	return []fed.Summary{a, b}
}

func TestLocalOnlyRoutesHome(t *testing.T) {
	s := sums2(fed.Summary{Waiting: 100, Capacity: 1}, fed.Summary{Waiting: 0, Capacity: 100})
	if got := (fed.LocalOnly{}).Route(0, 0, s); got != 0 {
		t.Fatalf("local-only routed to %d", got)
	}
}

func TestLeastLoadedPrefersEmptierCluster(t *testing.T) {
	p := fed.LeastLoaded{}
	// Origin 0 has 6 waiting on 2 machines; cluster 1 has 1 waiting on
	// 4 machines — offload.
	s := sums2(fed.Summary{Waiting: 6, Capacity: 2}, fed.Summary{Waiting: 1, Capacity: 4})
	if got := p.Route(0, 0, s); got != 1 {
		t.Fatalf("least-loaded kept the job at the overloaded origin (got %d)", got)
	}
	// Exact tie (same backlog per capacity): stay at the origin.
	s = sums2(fed.Summary{Waiting: 2, Capacity: 4}, fed.Summary{Waiting: 1, Capacity: 2})
	if got := p.Route(0, 0, s); got != 0 {
		t.Fatalf("least-loaded moved the job on a tie (got %d)", got)
	}
	if got := p.Route(0, 1, s); got != 1 {
		t.Fatalf("least-loaded moved the job on a tie from origin 1 (got %d)", got)
	}
}

func TestFairnessAwareFollowsDeficit(t *testing.T) {
	p := fed.FairnessAware{}
	// With exchanged φ: org 0 contributed much at cluster 1 (φ=50) but
	// consumed little there (ψ=10); at its origin it already overdrew
	// (φ=5, ψ=30). The job goes where the credit is.
	s := sums2(
		fed.Summary{Psi: []int64{30, 0}, Phi: []float64{5, 0}, Capacity: 2, OrgCapacity: []int64{1, 1}},
		fed.Summary{Psi: []int64{10, 0}, Phi: []float64{50, 0}, Capacity: 2, OrgCapacity: []int64{2, 0}},
	)
	if got := p.Route(0, 0, s); got != 1 {
		t.Fatalf("fairness-aware ignored the φ−ψ credit (got %d)", got)
	}
	// Without φ the capacity-proportional entitlement stands in: org 0
	// owns all of cluster 1's machines (entitlement = full value 40,
	// consumed 10 → deficit 30) and none at the origin.
	s = sums2(
		fed.Summary{Psi: []int64{20, 5}, Phi: nil, Value: 25, Capacity: 3, OrgCapacity: []int64{0, 3}},
		fed.Summary{Psi: []int64{10, 30}, Phi: nil, Value: 40, Capacity: 2, OrgCapacity: []int64{2, 0}},
	)
	if got := p.Route(0, 0, s); got != 1 {
		t.Fatalf("fairness-aware ignored the capacity entitlement (got %d)", got)
	}
	// All deficits zero (fresh federation): stay at the origin.
	s = sums2(
		fed.Summary{Psi: []int64{0, 0}, Value: 0, Capacity: 2, OrgCapacity: []int64{1, 1}},
		fed.Summary{Psi: []int64{0, 0}, Value: 0, Capacity: 2, OrgCapacity: []int64{1, 1}},
	)
	if got := p.Route(0, 1, s); got != 1 {
		t.Fatalf("fairness-aware left a fresh origin (got %d)", got)
	}
}

// TestFairnessCapacityNormalizes: the capacity-normalized variant
// prefers the site where the credit is scarce relative to capacity,
// flipping the raw-credit choice when a big site holds slightly more
// absolute credit.
func TestFairnessCapacityNormalizes(t *testing.T) {
	// Raw deficits: 12 at the 8-capacity origin, 9 at the 2-capacity
	// peer. FairnessAware keeps the job home (12 > 9); per unit of
	// capacity the peer's credit is denser (4.5 > 1.5), so the
	// normalized variant delegates.
	s := sums2(
		fed.Summary{Psi: []int64{0, 0}, Phi: []float64{12, 0}, Capacity: 8, OrgCapacity: []int64{4, 4}},
		fed.Summary{Psi: []int64{0, 0}, Phi: []float64{9, 0}, Capacity: 2, OrgCapacity: []int64{1, 1}},
	)
	if got := (fed.FairnessAware{}).Route(0, 0, s); got != 0 {
		t.Fatalf("raw fairness delegated on larger absolute credit at home (got %d)", got)
	}
	if got := (fed.FairnessCapacity{}).Route(0, 0, s); got != 1 {
		t.Fatalf("capacity-normalized fairness ignored credit density (got %d)", got)
	}
}

// TestFairnessDecayedExpires: the decayed variant delegates on a young
// federation's credit but not on the same absolute credit aged far past
// the decay timescale — and never for advantages below one work unit.
func TestFairnessDecayedExpires(t *testing.T) {
	p := fed.FairnessDecayed{}
	credit := func(now model.Time) []fed.Summary {
		return sums2(
			fed.Summary{Now: now, Psi: []int64{30, 0}, Phi: []float64{5, 0}, Capacity: 2, OrgCapacity: []int64{1, 1}},
			fed.Summary{Now: now, Psi: []int64{10, 0}, Phi: []float64{50, 0}, Capacity: 2, OrgCapacity: []int64{2, 0}},
		)
	}
	if got := p.Route(0, 0, credit(0)); got != 1 {
		t.Fatalf("young credit not honored (got %d)", got)
	}
	if got := p.Route(0, 0, credit(100*fed.DefaultDecayTau)); got != 0 {
		t.Fatalf("ancient credit still bounced the job (got %d)", got)
	}
}

func TestPolicyByName(t *testing.T) {
	_, bogus := fed.PolicyByName("bogus")
	if bogus == nil {
		t.Fatal("unknown policy name accepted")
	}
	// One spelling per policy, matched case-insensitively, and the
	// error's "want" list is the whole table.
	for _, name := range []string{
		"local", "leastloaded", "fairness", "fairness-capacity", "fairness-decay",
		"fedref", "fedref-migrate", "fednbs", "fednbs-migrate", "fairness-migrate",
	} {
		for _, spelled := range []string{name, strings.ToUpper(name)} {
			p, err := fed.PolicyByName(spelled)
			if err != nil {
				t.Fatalf("PolicyByName(%q): %v", spelled, err)
			}
			if p.Name() != name {
				t.Fatalf("PolicyByName(%q) = %q, want %q", spelled, p.Name(), name)
			}
		}
		if !regexp.MustCompile(`[( ]` + name + `[,) ]`).MatchString(bogus.Error()) {
			t.Fatalf("error does not offer %q: %v", name, bogus)
		}
	}
	for _, alias := range []string{
		"localonly", "local-only", "least-loaded", "greedy", "fairness-aware", "fair", "capacity",
		"fairness-decayed", "decay", "ref", "ref-migrate", "nbs", "nbs-migrate", "fair-migrate",
	} {
		if _, err := fed.PolicyByName(alias); err == nil {
			t.Fatalf("retired alias %q still resolves", alias)
		}
	}
}

// TestPolicyNameRoundTrip: a checkpoint stores a policy as its name, so
// the name must be the policy's whole identity — PolicyByName(p.Name())
// routes a saturated federation exactly like p, for every policy value
// the registry ships. The sampled FedREF variants are the ones that
// used to break it: a "fedref-sample<N>" below 17 members evaluated
// exactly, and came back from its name sampling.
func TestPolicyNameRoundTrip(t *testing.T) {
	migrate := func(inner fed.Policy) fed.Policy {
		return fed.Migrating{Inner: inner, Budget: fed.DefaultMigrationBudget}
	}
	for _, p := range []fed.Policy{
		fed.LocalOnly{}, fed.LeastLoaded{}, fed.FairnessAware{}, fed.FairnessCapacity{},
		fed.FairnessDecayed{}, fed.RefPolicy{}, fed.RefPolicy{Samples: 2}, fed.RefPolicy{Samples: 64},
		fed.NBSPolicy{}, migrate(fed.RefPolicy{}), migrate(fed.RefPolicy{Samples: 2}),
		migrate(fed.NBSPolicy{}), migrate(fed.FairnessAware{}),
	} {
		t.Run(p.Name(), func(t *testing.T) {
			byName, err := fed.PolicyByName(p.Name())
			if err != nil {
				t.Fatal(err)
			}
			if byName.Name() != p.Name() {
				t.Fatalf("PolicyByName(%q) is named %q", p.Name(), byName.Name())
			}
			algs := []string{"directcontr", "fairshare"}
			direct, _ := buildFederation(t, algs, p, 23)
			named, _ := buildFederation(t, algs, byName, 23)
			for _, f := range []*fed.Federation{direct, named} {
				if _, err := f.Step(6000); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(fingerprint(t, direct), fingerprint(t, named)) {
				t.Fatalf("PolicyByName(%q) routes differently from the policy that bears the name", p.Name())
			}
		})
	}
}

// TestLeastLoadedOffloadsEndToEnd drives a real two-cluster federation
// into imbalance: every submission arrives at cluster 0, and the
// least-loaded policy must spill a strict majority of the second wave
// to the idle cluster 1 while local-only leaves it idle.
func TestLeastLoadedOffloadsEndToEnd(t *testing.T) {
	build := func(policy fed.Policy) *fed.Federation {
		specs := []fed.ClusterSpec{
			{Name: "busy", Alg: algFactory("fairshare"), Machines: []int{1, 1}},
			{Name: "idle", Alg: algFactory("fairshare"), Machines: []int{2, 2}},
		}
		f, err := fed.New([]string{"o0", "o1"}, specs, policy, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 24; i++ {
			if _, err := f.Submit(0, i%2, 8, model.Time(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.Step(400); err != nil {
			t.Fatal(err)
		}
		if err := f.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	ll := build(fed.LeastLoaded{}).Ledger()
	if ll.Routed[0][1] <= ll.Routed[0][0] {
		t.Fatalf("least-loaded kept %d at the 2-machine origin, offloaded %d to the 4-machine idle site",
			ll.Routed[0][0], ll.Routed[0][1])
	}
	lo := build(fed.LocalOnly{}).Ledger()
	if lo.Routed[0][1] != 0 || lo.Executed[1] != 0 {
		t.Fatalf("local-only touched the idle cluster: routed %d, executed %d", lo.Routed[0][1], lo.Executed[1])
	}
}

// FedREF's ties are the game's, not the evaluator's: two members with
// equal demand and capacity get bit-equal φ, and with equal assigned
// work an equal deficit, so a job released at one of them is never
// routed to the other — "ties prefer the origin" decided by rounding
// noise would send it there.
func TestFedREFSymmetricMembersTie(t *testing.T) {
	for seed := int64(0); seed < 1000; seed++ {
		r := rand.New(rand.NewSource(7000 + seed))
		k := 3 + r.Intn(6)
		g := randFedGame(r, k)
		a, b := 0, 1+r.Intn(k-1)
		g.Demand[b], g.Cap[b] = g.Demand[a], g.Cap[a]
		at := model.Time(1 + r.Intn(200))
		if phi := shapley.ExactAt(g, at); phi[a] != phi[b] {
			t.Fatalf("seed %d t=%d: symmetric members %d and %d got φ %v and %v", seed, at, a, b, phi[a], phi[b])
		}
		// Every member kept its own work so far: assigned = demand.
		sums := make([]fed.Summary, k)
		routed := make([][]int64, k)
		for c := range sums {
			sums[c] = fed.Summary{Cluster: c, Now: at, Capacity: g.Cap[c]}
			routed[c] = make([]int64, k)
			routed[c][c] = g.Demand[c]
		}
		for _, pair := range [][2]int{{a, b}, {b, a}} {
			if got := (fed.RefPolicy{}).RouteLedger(0, pair[0], sums, routed); got == pair[1] {
				t.Fatalf("seed %d t=%d: job of origin %d routed to its symmetric peer %d", seed, at, pair[0], got)
			}
		}
	}
}
