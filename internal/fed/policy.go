package fed

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/model"
	"repro/internal/shapley"
)

// Summary is one member cluster's exported state at a routing instant —
// the information clusters exchange in the federated model. It contains
// queue backlog and capacity (the load signals) and the cluster's
// per-organization ψ and φ vectors (the fairness signals); job sizes
// are never part of it, keeping delegation non-clairvoyant. A cached
// exchange stores only what was observed: which cluster, when, its
// capacities and Σ ψ are the configuration's, the exchange instant's
// and Psi's to say, and Restore fills them in from there.
type Summary struct {
	Cluster     int        `json:"-"`
	Now         model.Time `json:"-"`
	Waiting     int        `json:"waiting"` // jobs fed to the cluster but not yet started
	Capacity    int64      `json:"-"`       // total work units per time unit at this cluster
	OrgCapacity []int64    `json:"-"`
	Psi         []int64    `json:"psi"`           // per-org ψsp earned at this cluster
	Phi         []float64  `json:"phi,omitempty"` // per-org contribution estimate; nil when the algorithm computes none
	Value       int64      `json:"-"`             // Σ ψ — the cluster's coalition value
	Executed    int64      `json:"executed"`      // executed unit slots
	Utilization float64    `json:"utilization"`
}

// Policy decides, at a job's release instant, which member cluster
// executes it. Route receives the owning organization, the origin
// cluster, and the freshly exchanged summaries of every member;
// implementations must be deterministic pure functions of their
// arguments (the federation's determinism and checkpoint guarantees
// depend on it) and must return a valid cluster index.
type Policy interface {
	Name() string
	Route(org, origin int, sums []Summary) int
}

// LedgerPolicy is a Policy that additionally reads the exchanged
// federation-level accounting: the ledger's routed-work matrix
// (routedWork[origin][target], work units) at the same exchange instant
// as the summaries. The federation calls RouteLedger when the policy
// implements it and falls back to Route otherwise; like Route,
// RouteLedger must be a deterministic pure function of its arguments.
type LedgerPolicy interface {
	Policy
	RouteLedger(org, origin int, sums []Summary, routedWork [][]int64) int
}

// Scorer is implemented by a LedgerPolicy whose choice depends on the
// exchange alone, not on the job's organization: one score per member,
// and a job routes to the origin-preferring largest score
// (argmaxFromOrigin: ties to the origin, then the lowest index). The
// exchange is frozen between gossips, so the federation evaluates
// Scores once per exchange and routes every job on it — own releases
// and re-delegated ones alike — by an O(k) scan; RouteLedger must be
// that scan over Scores. Like RouteLedger, Scores must be a
// deterministic pure function of its arguments, and it returns
// len(sums) scores.
type Scorer interface {
	Scores(sums []Summary, routedWork [][]int64) []float64
}

// scorerOf returns the Scorer that really routes for p: Migrating
// forwards to its inner policy, so it answers for it.
func scorerOf(p Policy) (Scorer, bool) {
	if m, ok := p.(Migrating); ok {
		p = m.Inner
	}
	s, ok := p.(Scorer)
	return s, ok
}

// LocalOnly never delegates: every job runs at its origin cluster.
// This is the no-federation baseline the other policies are measured
// against.
type LocalOnly struct{}

// Name implements Policy.
func (LocalOnly) Name() string { return "local" }

// Route implements Policy.
func (LocalOnly) Route(_, origin int, _ []Summary) int { return origin }

// LeastLoaded delegates greedily to the cluster with the smallest queue
// backlog per unit of capacity — classic load balancing, blind to
// fairness. Backlog counts waiting jobs, not work (sizes are unknown
// until completion). Ties prefer the origin cluster, then the lowest
// index, so routing is deterministic.
type LeastLoaded struct{}

// Name implements Policy.
func (LeastLoaded) Name() string { return "leastloaded" }

// Route implements Policy.
func (LeastLoaded) Route(_, origin int, sums []Summary) int {
	best := origin
	for i := range sums {
		if i == origin {
			continue
		}
		// waiting_i/cap_i < waiting_best/cap_best, cross-multiplied to
		// stay in exact integer arithmetic.
		if int64(sums[i].Waiting)*sums[best].Capacity < int64(sums[best].Waiting)*sums[i].Capacity {
			best = i
		}
	}
	return best
}

// FairnessAware delegates by contribution credit, the federated analogue
// of REF's largest-deficit rule: the job of organization o goes to the
// cluster where o's deficit — its contribution minus what it has
// consumed — is largest, i.e. where the federation owes o the most
// service. The deficit at cluster c is φ_c[o] − ψ_c[o] when the
// cluster's algorithm exchanges contribution estimates (REF's exact
// Shapley φ, RAND's sampled estimate, DIRECTCONTR's direct one);
// otherwise the capacity-proportional entitlement
// (cap_c[o]/cap_c)·v_c − ψ_c[o] stands in for it. Ties prefer the
// origin cluster, then the lowest index.
type FairnessAware struct{}

// Name implements Policy.
func (FairnessAware) Name() string { return "fairness" }

// Route implements Policy.
func (FairnessAware) Route(org, origin int, sums []Summary) int {
	return argmaxFromOrigin(origin, len(sums), func(c int) float64 { return deficit(org, sums[c]) }, 0)
}

// argmaxFromOrigin is the origin-preferring largest-score scan every
// deficit-driven policy routes by — REF's largest-deficit rule one
// level up, with clusters as players: start from the origin and move to
// member c only when score(c) beats the best so far by more than
// margin, so ties prefer the origin, then the lowest index.
func argmaxFromOrigin(origin, n int, score func(c int) float64, margin float64) int {
	best, bestScore := origin, score(origin)
	for c := 0; c < n; c++ {
		if c == origin {
			continue
		}
		if s := score(c); s > bestScore+margin {
			best, bestScore = c, s
		}
	}
	return best
}

// bestScore is argmaxFromOrigin over a Scorer's vector: the route
// RouteLedger answers and the federation's per-job scan.
func bestScore(origin int, scores []float64) int {
	return argmaxFromOrigin(origin, len(scores), func(c int) float64 { return scores[c] }, 0)
}

// subtractAssigned turns a value share per member into its deficit:
// share_c − assigned_c, where assigned_c is the routed-work matrix's
// column sum — the work already routed to c, whatever its origin.
func subtractAssigned(share []float64, routedWork [][]int64) []float64 {
	assigned := make([]int64, len(share))
	for o := range routedWork {
		for c, w := range routedWork[o] {
			assigned[c] += w
		}
	}
	for c := range share {
		share[c] -= float64(assigned[c])
	}
	return share
}

// deficit is organization org's contribution credit at the summarized
// cluster: estimated contribution minus consumed ψ.
func deficit(org int, s Summary) float64 {
	contr := float64(0)
	if s.Phi != nil {
		contr = s.Phi[org]
	} else if s.Capacity > 0 {
		contr = float64(s.OrgCapacity[org]) / float64(s.Capacity) * float64(s.Value)
	}
	return contr - float64(s.Psi[org])
}

// FairnessCapacity is the capacity-normalized pricing ablation of
// FairnessAware: the φ−ψ credit is divided by the cluster's capacity
// before comparison, so one unit of credit at a small site outweighs
// the same credit at a large one — the large site's credit is cheap to
// honor later, the small site's is scarce. Ties prefer the origin, then
// the lowest index.
type FairnessCapacity struct{}

// Name implements Policy.
func (FairnessCapacity) Name() string { return "fairness-capacity" }

// Route implements Policy.
func (FairnessCapacity) Route(org, origin int, sums []Summary) int {
	return argmaxFromOrigin(origin, len(sums), func(c int) float64 { return capDeficit(org, sums[c]) }, 0)
}

// capDeficit is the per-unit-capacity contribution credit.
func capDeficit(org int, s Summary) float64 {
	d := deficit(org, s)
	if s.Capacity > 0 {
		return d / float64(s.Capacity)
	}
	return d
}

// DefaultDecayTau is FairnessDecayed's decay timescale τ.
const DefaultDecayTau = model.Time(5000)

// FairnessDecayed is the time-decayed pricing ablation of
// FairnessAware: contribution credit is perishable. Deficits are scaled
// by τ/(τ+t) before comparison and a delegation away from the current
// best must improve the decayed credit by more than one work unit, so
// early imbalances drive offloading at full strength while the same
// absolute credit differences stop mattering once the federation has
// run long enough — ancient credit cannot bounce late jobs around.
type FairnessDecayed struct{}

// Name implements Policy.
func (FairnessDecayed) Name() string { return "fairness-decay" }

// Route implements Policy.
func (FairnessDecayed) Route(org, origin int, sums []Summary) int {
	decay := float64(DefaultDecayTau) / float64(DefaultDecayTau+sums[origin].Now)
	return argmaxFromOrigin(origin, len(sums), func(c int) float64 { return deficit(org, sums[c]) * decay }, 1)
}

// DefaultMigrationBudget is the per-refresh-round migration cap
// PolicyByName gives the "-migrate" policy variants: enough to drain a
// mis-routed burst within a few gossip rounds, small enough that one
// refresh cannot reshuffle a whole backlog on a single stale view.
const DefaultMigrationBudget = 8

// MigratingPolicy is a Policy that opts into the re-delegation pass:
// at each staleness-delimited exchange refresh the federation re-scores
// every still-queued routed job under the policy (with the job's
// current holder as the tie-preferred origin) and migrates up to
// MigrationBudget jobs per refresh to strictly better members.
type MigratingPolicy interface {
	Policy
	// MigrationBudget returns the per-refresh migration cap; values
	// ≤ 0 disable migration (the pass never fires).
	MigrationBudget() int
}

// Migrating wraps any delegation policy with queued-job re-delegation.
// Routing is delegated verbatim to Inner — with Budget 0 a Migrating
// federation is byte-identical to the bare Inner federation — and the
// migration pass reuses the same Route/RouteLedger scoring: a queued
// job held at cluster c migrates exactly when the policy, asked to
// route it with origin c on the freshly refreshed exchange, picks a
// different cluster (every shipped policy breaks ties toward the
// origin, so "different" means "strictly better").
type Migrating struct {
	Inner Policy
	// Budget caps migrations per exchange refresh; ≤ 0 disables.
	Budget int
}

// Name implements Policy: the inner name with a "-migrate" suffix, so
// checkpoints of migrating and non-migrating runs never cross-restore.
func (m Migrating) Name() string { return m.Inner.Name() + "-migrate" }

// Route implements Policy.
func (m Migrating) Route(org, origin int, sums []Summary) int {
	return m.Inner.Route(org, origin, sums)
}

// RouteLedger implements LedgerPolicy, forwarding to the inner policy's
// ledger-aware entry point when it has one.
func (m Migrating) RouteLedger(org, origin int, sums []Summary, routedWork [][]int64) int {
	if lp, ok := m.Inner.(LedgerPolicy); ok {
		return lp.RouteLedger(org, origin, sums, routedWork)
	}
	return m.Inner.Route(org, origin, sums)
}

// MigrationBudget implements MigratingPolicy.
func (m Migrating) MigrationBudget() int { return m.Budget }

// usesLedger reports whether the policy actually reads the exchanged
// routed-work matrix. Migrating implements LedgerPolicy to forward it,
// so a plain interface assertion would make every "-migrate" wrapper
// pay the per-exchange matrix copy (and carry ExRouted in checkpoints)
// even when the inner policy never looks at it; unwrapping answers for
// the policy that really routes.
func usesLedger(p Policy) bool {
	if m, ok := p.(Migrating); ok {
		p = m.Inner
	}
	_, ok := p.(LedgerPolicy)
	return ok
}

// maxExactFedPlayers bounds the member count for which FedREF runs the
// exact O(k·2^k) Shapley evaluator; larger federations fall back to the
// sampled estimator at a fixed permutation budget.
const maxExactFedPlayers = 16

// fedRefSampleBudget is the sampled estimator's permutation budget for
// federations above maxExactFedPlayers members.
const fedRefSampleBudget = 256

// RefPolicy is FedREF: Algorithm REF lifted one level, from
// organizations inside a cluster to clusters inside the federation. On
// each exchange it evaluates the federation-level cooperative
// game (fed.Game — members as players, v(S,t) the completed-work
// utility the coalition could realize alone), computes each member's
// Shapley contribution φ_c with the generic estimators, and routes each
// job to the member with the largest federation-level deficit
//
//	φ_c − assigned_c,
//
// where assigned_c is the work already routed to c (the routed-work
// column sum): the member whose realized share of the federation's work
// lags its Shapley share of the federation's value the most is the one
// the federation owes utilization to. A saturated origin's assigned
// work exceeds the value share its own capacity supports, so surplus
// flows to under-assigned members exactly when pooling creates value —
// and once every coalition could have completed everything, φ_c decays
// to c's own demand and the rule becomes reciprocity: members that
// exported more than they imported attract the next jobs.
//
// Ties prefer the origin cluster, then the lowest index; a fresh
// federation (all zeros) therefore routes every job home, and a
// 1-member federation reproduces single-cluster behavior exactly
// (TestOneMemberFedRefMatchesSingleClusterRef, every algorithm). The
// exact evaluator is shapley.Contrib — φ_c is an integer numerator over
// lcm(1..k) — so members symmetric in the game tie bit for bit and the
// rule above, not rounding, decides between them.
type RefPolicy struct {
	// Samples > 0 is the explicitly sampled variant: every route goes
	// through the sampled estimator with that permutation budget, even
	// when the member count admits the exact evaluator — the
	// sampled-Shapley ablation's control knob (routing quality vs
	// sample budget, EXPERIMENTS.md). 0 evaluates exactly up to
	// maxExactFedPlayers members and samples fedRefSampleBudget
	// permutations past it.
	Samples int
}

func (p RefPolicy) sampleBudget() int {
	if p.Samples > 0 {
		return p.Samples
	}
	return fedRefSampleBudget
}

// Name implements Policy. Explicitly sampled variants carry the budget
// in the name ("fedref-sample64"), so checkpoints restore the exact
// estimator configuration and ablation tables label rows by budget.
func (p RefPolicy) Name() string {
	if p.Samples > 0 {
		return fmt.Sprintf("fedref-sample%d", p.Samples)
	}
	return "fedref"
}

// Route implements Policy. Without the exchanged ledger there is no
// federation game to value, so the degenerate form keeps the job home;
// the federation always calls RouteLedger.
func (RefPolicy) Route(_, origin int, _ []Summary) int { return origin }

// RouteLedger implements LedgerPolicy.
func (p RefPolicy) RouteLedger(_, origin int, sums []Summary, routedWork [][]int64) int {
	return bestScore(origin, p.Scores(sums, routedWork))
}

// Scores implements Scorer: φ_c − assigned_c per member. A one-member
// federation has no game to value; its one score is 0.
func (p RefPolicy) Scores(sums []Summary, routedWork [][]int64) []float64 {
	if len(sums) <= 1 {
		return make([]float64, len(sums))
	}
	g := GameFromExchange(sums, routedWork)
	t := sums[0].Now // every summary of an exchange carries its instant
	var phi []float64
	if len(sums) <= maxExactFedPlayers && p.Samples <= 0 {
		phi = shapley.ExactAt(g, t)
	} else {
		// Deterministic pure function of the arguments: the sample
		// stream is derived from the exchange instant alone.
		phi = shapley.SampleAt(g, t, p.sampleBudget(), rand.New(rand.NewSource(int64(t))))
	}
	return subtractAssigned(phi, routedWork)
}

// PolicyByName resolves a delegation policy from its wire name.
// "fedref-sample<N>" (optionally "-migrate" suffixed) is the explicitly
// sampled FedREF variant with an N-permutation budget.
func PolicyByName(name string) (Policy, error) {
	low := strings.ToLower(name)
	if rest, ok := strings.CutPrefix(low, "fedref-sample"); ok {
		migrate := false
		if r, ok := strings.CutSuffix(rest, "-migrate"); ok {
			migrate, rest = true, r
		}
		n, err := strconv.Atoi(rest)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("fed: bad sampled-FedREF policy %q (want fedref-sample<N> with N >= 1)", name)
		}
		p := Policy(RefPolicy{Samples: n})
		if migrate {
			p = Migrating{Inner: p, Budget: DefaultMigrationBudget}
		}
		return p, nil
	}
	switch low {
	case "local":
		return LocalOnly{}, nil
	case "leastloaded":
		return LeastLoaded{}, nil
	case "fairness":
		return FairnessAware{}, nil
	case "fairness-capacity":
		return FairnessCapacity{}, nil
	case "fairness-decay":
		return FairnessDecayed{}, nil
	case "fedref":
		return RefPolicy{}, nil
	case "fedref-migrate":
		return Migrating{Inner: RefPolicy{}, Budget: DefaultMigrationBudget}, nil
	case "fednbs":
		return NBSPolicy{}, nil
	case "fednbs-migrate":
		return Migrating{Inner: NBSPolicy{}, Budget: DefaultMigrationBudget}, nil
	case "fairness-migrate":
		return Migrating{Inner: FairnessAware{}, Budget: DefaultMigrationBudget}, nil
	default:
		return nil, fmt.Errorf("fed: unknown delegation policy %q (want local, leastloaded, fairness, fairness-capacity, fairness-decay, fedref, fedref-migrate, fednbs, fednbs-migrate, fairness-migrate or fedref-sample<N>[-migrate])", name)
	}
}

// WithMigrationBudget overrides a migrating policy's per-refresh
// budget: positive values replace it, negative values disable
// migration, zero keeps the policy's own. Non-migrating policies are
// returned unchanged — the knob has nothing to turn there.
func WithMigrationBudget(p Policy, budget int) Policy {
	m, ok := p.(Migrating)
	if !ok || budget == 0 {
		return p
	}
	if budget < 0 {
		budget = 0
	}
	m.Budget = budget
	return m
}
