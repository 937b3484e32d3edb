package fed

import (
	"repro/internal/bargain"
	"repro/internal/model"
)

// NBSPolicy is FedNBS: the Nash-bargaining delegation policy, the
// federation-level counterpart of the in-cluster NBS allocator. It
// values the same federation game as FedREF (members as players,
// v(S,t) = min(Σdemand, t·Σcap)) but replaces the Shapley split with
// the weighted Nash bargaining solution: each member's disagreement
// point d_c is the completed-work value it could realize alone,
// v({c},t) — opting out of the federation costs a member nothing — its
// weight is its contributed capacity, and its allocation is capped at
// t·cap_c (no member can be promised more completed work than its own
// machines could physically have ground through). The job routes to
// the member whose realized assignment lags its bargaining target the
// most,
//
//	x_c − assigned_c,
//
// with assigned_c the routed-work column sum, mirroring FedREF's
// largest-deficit rule with φ swapped for x. Because the min-structured
// game is superadditive, Σd ≤ v(grand) always holds and the solve
// never degenerates on live exchanges. Where FedREF pays O(k·2^k) (or
// samples) per exchange, the water-filling solve is O(k²) —
// FedNBS is the tractable bargaining ablation of the same two-level
// design.
//
// Ties prefer the origin cluster, then the lowest index; a fresh
// federation (zero time, zero ledger) routes every job home, and a
// 1-member federation reproduces single-cluster behavior exactly
// (TestOneMemberFedNbsMatchesSingleClusterRef, every algorithm).
type NBSPolicy struct{}

// Name implements Policy.
func (NBSPolicy) Name() string { return "fednbs" }

// Route implements Policy. Without the exchanged ledger there is no
// federation game to bargain over, so the degenerate form keeps the
// job home; the federation always calls RouteLedger.
func (NBSPolicy) Route(_, origin int, _ []Summary) int { return origin }

// RouteLedger implements LedgerPolicy.
func (p NBSPolicy) RouteLedger(_, origin int, sums []Summary, routedWork [][]int64) int {
	return bestScore(origin, p.Scores(sums, routedWork))
}

// Scores implements Scorer: x_c − assigned_c per member. A one-member
// federation has nothing to bargain over; its one score is 0.
func (NBSPolicy) Scores(sums []Summary, routedWork [][]int64) []float64 {
	k := len(sums)
	if k <= 1 {
		return make([]float64, k)
	}
	g := GameFromExchange(sums, routedWork)
	t := sums[0].Now // every summary of an exchange carries its instant
	w := make([]float64, k)
	d := make([]float64, k)
	maxs := make([]float64, k)
	x := make([]float64, k)
	for c := 0; c < k; c++ {
		w[c] = float64(g.Cap[c])
		d[c] = float64(g.ValueAt(model.Singleton(c), t))
		maxs[c] = float64(t) * float64(g.Cap[c])
	}
	capacity := float64(g.ValueAt(model.Grand(k), t))
	var s bargain.Solver
	if err := s.SolveInto(x, w, d, maxs, capacity); err != nil {
		// Unreachable on a superadditive exchange; bargain from no
		// surplus if float rounding ever disagrees.
		copy(x, d)
	}
	return subtractAssigned(x, routedWork)
}
