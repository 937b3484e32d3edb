package fed

import (
	"repro/internal/model"
	"repro/internal/shapley"
)

// Game is the federation-level instance of shapley.ContribGame — the
// two-level structure of the federated-clouds follow-up paper: the
// member clusters are the players, and a coalition's value is the
// completed-work utility the coalition could have realized on its own
// by time t,
//
//	v(S, t) = min( Σ_{c∈S} Demand_c , t · Σ_{c∈S} Cap_c ),
//
// with Demand_c the work units released at origin c so far (the
// ledger's routed-work row sums) and Cap_c the cluster's work capacity
// per time unit. A coalition completes at most what its members'
// machines can grind through (t·cap) and at most what its members'
// users have asked for (demand), whichever binds.
//
// The min structure is what makes the game genuinely cooperative: a
// saturated cluster (demand above own capacity) and an idle one create
// surplus value together that neither has alone, so the Shapley value
// splits the gains from pooling — capacity-bound early on, it degrades
// to the additive demand game once every coalition could have finished
// everything, where each member's contribution is exactly its own
// demand.
//
// Values are read from an exchange snapshot (see Federation's staleness
// knob), so the game is a pure function of gossiped state — exactly
// what a real federation peer could compute.
type Game struct {
	// Demand[c] is the work released at origin cluster c (work units).
	Demand []int64
	// Cap[c] is cluster c's total work capacity per time unit.
	Cap []int64
}

var _ shapley.ContribGame = (*Game)(nil)

// GameFromExchange derives the game from one exchanged snapshot: the
// routed-work matrix supplies per-origin demand (row sums), the member
// summaries supply capacity.
func GameFromExchange(sums []Summary, routedWork [][]int64) *Game {
	demand := make([]int64, len(sums))
	capacity := make([]int64, len(sums))
	for c := range sums {
		capacity[c] = sums[c].Capacity
		for _, w := range routedWork[c] {
			demand[c] += w
		}
	}
	return &Game{Demand: demand, Cap: capacity}
}

// Players implements shapley.ContribGame.
func (g *Game) Players() int { return len(g.Demand) }

// ValueAt implements shapley.ContribGame.
func (g *Game) ValueAt(c model.Coalition, t model.Time) int64 {
	var demand, capacity int64
	c.EachMember(func(m int) {
		demand += g.Demand[m]
		capacity += g.Cap[m]
	})
	if work := int64(t) * capacity; work < demand {
		return work
	}
	return demand
}
