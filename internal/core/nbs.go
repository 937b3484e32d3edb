package core

import (
	"math"

	"repro/internal/bargain"
	"repro/internal/baseline"
	"repro/internal/model"
	"repro/internal/sim"
)

// Nbs is Algorithm NBS: the Nash-bargaining in-cluster allocator — the
// first non-Shapley solution concept on the ContribGame layer. Where
// REF prices schedules by exact Shapley contribution over all 2^k−1
// subcoalitions, NBS needs only the k standalone schedules plus the
// pooled one: at each dispatch instant it computes per-organization
// allocation targets
//
//	x = NBS(w, d, C)
//
// with disagreement points d_i the value organization i's own machines
// realize alone (its singleton schedule — the same v({i}, t) that
// anchors REF's game), weights w_i its contributed capacity, and C the
// pooled cluster's realized value, then starts the waiting job of the
// organization with the largest target deficit x_i − ψ_i. Maintaining
// k+1 schedules instead of 2^k−1 makes NBS polynomial in the number of
// organizations — it runs where REF's FPT loop cannot.
//
// As a schedSet plug: slots 0..k−1 are the singleton schedules ({i}
// running alone on its own machines), slot k the pooled (decision)
// schedule, checkpointed in that order; the target vector is x.
type Nbs struct {
	*schedSet
	k int

	// Per-organization NBS columns, refreshed once per dispatch
	// instant; preallocated so steady-state stepping allocates nothing.
	w, d, x, maxs []float64
	solver        bargain.Solver
}

// NewNbs builds the Nash-bargaining scheduler for the instance.
func NewNbs(inst *model.Instance) *Nbs {
	k := len(inst.Orgs)
	n := &Nbs{
		k:    k,
		w:    make([]float64, k),
		d:    make([]float64, k),
		x:    make([]float64, k),
		maxs: make([]float64, k),
	}
	q := sim.NewQueues(inst)
	slots := make([]*sim.Cluster, k+1)
	for i := 0; i < k; i++ {
		// The only member owns every waiting job: any policy selects it.
		slots[i] = q.NewCluster(model.Singleton(i), baseline.NewFCFS(), nil)
		n.w[i] = float64(inst.Orgs[i].Capacity())
		n.maxs[i] = math.Inf(1)
	}
	slots[k] = q.NewCluster(model.Grand(k), &deficitPolicy{name: "NBS", target: n.x}, nil)
	n.schedSet = newSchedSet("NBS", 0, inst, n, q, slots)
	return n
}

// retarget implements plug: only the pooled schedule bargains. Targets
// are refreshed once per dispatch instant, not per machine: ψ does not
// move within an instant, so one solve serves the whole batch.
func (n *Nbs) retarget(slot int, t model.Time) {
	if slot == n.k {
		n.refreshTargets(t)
	}
}

// phiAt implements plug: Phi reports the NBS allocation targets at t —
// the solution-concept analogue of REF's Shapley vector.
func (n *Nbs) phiAt(t model.Time) []float64 {
	n.refreshTargets(t)
	return append([]float64(nil), n.x...)
}

// refreshTargets recomputes the NBS allocation targets at t. The game
// is read exactly where REF reads it: d_i = v({i}, t) from the
// singleton schedule, C = the pooled schedule's value. The pooled
// value under NBS dispatch can, in rare instances, dip below the sum
// of the standalone values (Σψ is policy-dependent); the solver
// reports that as infeasibility and the targets degrade to the
// disagreement vector — bargaining from no surplus.
func (n *Nbs) refreshTargets(t model.Time) {
	for i := range n.d {
		n.d[i] = float64(n.valueAt(i, t))
	}
	capacity := float64(n.valueAt(n.k, t))
	if err := n.solver.SolveInto(n.x, n.w, n.d, n.maxs, capacity); err != nil {
		copy(n.x, n.d)
	}
}

// NbsAlgorithm is NBS as a StepperAlgorithm (NBS is deterministic; the
// seed is recorded in checkpoints and otherwise ignored).
type NbsAlgorithm struct{}

// Name implements StepperAlgorithm.
func (NbsAlgorithm) Name() string { return "NBS" }

// NewStepper implements StepperAlgorithm.
func (NbsAlgorithm) NewStepper(inst *model.Instance, seed int64) Stepper {
	n := NewNbs(inst)
	n.seed = seed
	return n
}

// RestoreStepper implements StepperAlgorithm.
func (a NbsAlgorithm) RestoreStepper(cp *Checkpoint) (Stepper, error) { return restoreStepper(a, cp) }
