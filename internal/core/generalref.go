package core

import (
	"math"
	"math/rand"

	"repro/internal/model"
	"repro/internal/shapley"
	"repro/internal/sim"
	"repro/internal/utility"
)

// GeneralRef is Algorithm REF in its full Figure 1 form: fair scheduling
// for an arbitrary utility function ψ. It follows the pseudocode's
// FairAlgorithm loop literally — at every time moment, coalitions are
// processed smallest first; UpdateVals recomputes each member's utility
// and Shapley contribution from the stored subcoalition values; and
// SelectAndSchedule starts the job minimizing the Distance between the
// utility vector and the contribution vector in the Manhattan metric.
//
// For ψsp the Distance comparison degenerates (a job started at t has
// executed nothing before t, so Δψ = 0) and the rule reduces to the
// Figure 3 simplification argmax(φ−ψ) — TestGeneralRefMatchesRef
// verifies that the two implementations then produce identical
// schedules. For utilities that react to starts (utility.Starts), the
// Distance procedure is non-degenerate and drives genuinely different
// decisions.
//
// GeneralRef re-evaluates ψ from per-organization execution lists at
// every decision instant, so it is a reference implementation: use Ref
// for ψsp experiments at scale.
type GeneralRef struct {
	inst  *model.Instance
	k     int
	grand model.Coalition
	util  utility.Func

	q      *sim.Queues // shared by every coalition's cluster
	sims   []*sim.Cluster
	bySize []model.Coalition
	execs  [][][]utility.Execution // [mask][org] -> executions
	psi    [][]int64               // [mask][org]
	phi    [][]float64             // [mask][org]
	ct     *shapley.Contrib        // coalition values, updated by updateVals in size order
}

// NewGeneralRef builds the arbitrary-utility reference scheduler.
func NewGeneralRef(inst *model.Instance, util utility.Func) *GeneralRef {
	k := len(inst.Orgs)
	g := &GeneralRef{
		inst:  inst,
		k:     k,
		grand: model.Grand(k),
		util:  util,
		q:     sim.NewQueues(inst),
		sims:  make([]*sim.Cluster, 1<<uint(k)),
		execs: make([][][]utility.Execution, 1<<uint(k)),
		psi:   make([][]int64, 1<<uint(k)),
		phi:   make([][]float64, 1<<uint(k)),
		ct:    shapley.NewContrib(k),
	}
	for mask := model.Coalition(1); mask <= g.grand; mask++ {
		g.sims[mask] = g.q.NewCluster(mask, &generalRefPolicy{g: g, mask: mask}, nil)
		g.execs[mask] = make([][]utility.Execution, k)
		g.psi[mask] = make([]int64, k)
		g.phi[mask] = make([]float64, k)
	}
	for s := 1; s <= k; s++ {
		for mask := model.Coalition(1); mask <= g.grand; mask++ {
			if mask.Size() == s {
				g.bySize = append(g.bySize, mask)
			}
		}
	}
	return g
}

// Run drives every coalition to the horizon and returns the grand
// coalition's result. Result.Psi reports the configured utility (not
// ψsp) per organization; Result.Value their sum.
func (g *GeneralRef) Run(until model.Time) *Result {
	for {
		t := sim.MaxTime
		for mask := model.Coalition(1); mask <= g.grand; mask++ {
			if e := g.sims[mask].NextEventTime(); e < t {
				t = e
			}
		}
		if t == sim.MaxTime || t > until {
			break
		}
		g.q.AdvanceTo(t)
		for mask := model.Coalition(1); mask <= g.grand; mask++ {
			g.sims[mask].AdvanceTo(t)
		}
		// FairAlgorithm's inner loop: smallest coalitions first, each
		// refreshing its values and contributions before scheduling.
		for _, mask := range g.bySize {
			g.updateVals(mask, t)
			g.sims[mask].Dispatch()
		}
	}
	g.q.AdvanceTo(until)
	for mask := model.Coalition(1); mask <= g.grand; mask++ {
		g.sims[mask].AdvanceTo(until)
	}
	g.refreshAt(until)
	grand := g.sims[g.grand]
	res := resultFromCluster("GeneralREF("+g.util.Name()+")", grand, until, append([]float64(nil), g.phi[g.grand]...))
	res.Psi = append([]int64(nil), g.psi[g.grand]...)
	res.Value = g.ct.Value(g.grand)
	return res
}

// refreshAt recomputes ψ, v and φ for every coalition at time t.
func (g *GeneralRef) refreshAt(t model.Time) {
	for _, mask := range g.bySize {
		g.updateVals(mask, t)
	}
}

// updateVals is the UpdateVals procedure of Figure 1 for one coalition:
// member utilities from the coalition's own schedule, the coalition
// value as their sum, and contributions by the contribution engine —
// the same exact integers Ref divides — over the currently stored
// subcoalition values.
func (g *GeneralRef) updateVals(mask model.Coalition, t model.Time) {
	psi := g.psi[mask]
	var value int64
	mask.EachMember(func(u int) {
		psi[u] = g.util.Eval(g.execs[mask][u], t)
		value += psi[u]
	})
	g.ct.SetValue(mask, value)
	g.ct.PhiInto(mask, g.phi[mask])
}

// PhiOf returns the last computed contribution vector of a coalition.
func (g *GeneralRef) PhiOf(mask model.Coalition) []float64 {
	return append([]float64(nil), g.phi[mask]...)
}

// generalRefPolicy implements SelectAndSchedule with the Distance
// procedure of Figure 1.
type generalRefPolicy struct {
	g    *GeneralRef
	mask model.Coalition
	view *sim.View
}

// Name implements sim.Policy.
func (p *generalRefPolicy) Name() string { return "GeneralREF" }

// Attach implements sim.Policy.
func (p *generalRefPolicy) Attach(v *sim.View, _ *rand.Rand) { p.view = v }

// Select implements sim.Policy: the organization minimizing the
// Manhattan distance between the tentative utility vector and the
// tentative contribution vector, assuming its head job is started now.
// Ties break toward the larger deficit φ−ψ, then the lower index.
func (p *generalRefPolicy) Select(t model.Time, _ int) int {
	g := p.g
	phi := g.phi[p.mask]
	psi := g.psi[p.mask]
	size := float64(p.mask.Size())
	best := -1
	bestDist := math.Inf(1)
	bestDeficit := math.Inf(-1)
	p.mask.EachMember(func(u int) {
		if p.view.Waiting(u) == 0 {
			return
		}
		dist := p.distance(t, u, phi, psi, size)
		deficit := phi[u] - float64(psi[u])
		if dist < bestDist-1e-9 || (dist < bestDist+1e-9 && deficit > bestDeficit) {
			best, bestDist, bestDeficit = u, dist, deficit
		}
	})
	// The engine starts best's head job now: record the execution and
	// update the organization's stored utility (SelectAndSchedule's last
	// line).
	id, _, _ := p.view.Head(best)
	g.execs[p.mask][best] = append(g.execs[p.mask][best], utility.Execution{Start: t, Size: g.inst.Jobs[id].Size})
	psi[best] = g.util.Eval(g.execs[p.mask][best], t)
	return best
}

// distance is the Distance procedure: with Δψ the utility increase of
// starting u's head job at t, every member's contribution rises by
// Δψ/‖C‖ and u's utility by Δψ.
func (p *generalRefPolicy) distance(t model.Time, u int, phi []float64, psi []int64, size float64) float64 {
	g := p.g
	id, _, ok := p.view.Head(u)
	if !ok {
		return math.Inf(1)
	}
	tentative := append(g.execs[p.mask][u], utility.Execution{Start: t, Size: g.inst.Jobs[id].Size})
	deltaPsi := float64(g.util.Eval(tentative, t) - psi[u])
	share := deltaPsi / size
	total := math.Abs(phi[u] + share - float64(psi[u]) - deltaPsi)
	p.mask.EachMember(func(v int) {
		if v != u {
			total += math.Abs(phi[v] + share - float64(psi[v]))
		}
	})
	return total
}

// GeneralRefAlgorithm adapts GeneralRef to the Algorithm interface.
type GeneralRefAlgorithm struct{ Util utility.Func }

// Name implements Algorithm.
func (a GeneralRefAlgorithm) Name() string { return "GeneralREF(" + a.Util.Name() + ")" }

// Run implements Algorithm.
func (a GeneralRefAlgorithm) Run(inst *model.Instance, until model.Time, _ int64) *Result {
	return NewGeneralRef(inst, a.Util).Run(until)
}
