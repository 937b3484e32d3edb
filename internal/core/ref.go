package core

import (
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/shapley"
	"repro/internal/sim"
)

// RefDriver is inert: every schedule set steps the one touched-set loop
// (schedSet), whatever the value. The type, its two values and
// ParseRefDriver stay declared only because bench/replay.go parses a
// driver into RefOptions.Driver; they go when bench/ stops doing so.
type RefDriver int

// The values ParseRefDriver returns for "heap" and "scan".
const (
	DriverHeap RefDriver = iota
	DriverScan
)

// ParseRefDriver resolves a driver name, the wire's "ref_driver": empty,
// "heap" or "scan", in any case; it refuses any other.
func ParseRefDriver(name string) (RefDriver, error) {
	switch strings.ToLower(name) {
	case "", "heap":
		return DriverHeap, nil
	case "scan":
		return DriverScan, nil
	default:
		return 0, fmt.Errorf("unknown REF driver %q (want heap or scan)", name)
	}
}

// RefOptions tunes the reference algorithm.
type RefOptions struct {
	// Driver is ignored; see RefDriver.
	Driver RefDriver
	// Rotate enables the within-instant deficit rotation ablation: after
	// each start, the chosen organization's standing is provisionally
	// charged one unit (Δψ = 1) and every member's contribution is
	// provisionally credited Δψ/‖C‖, following the Distance procedure of
	// Figure 1. The faithful Figure 3 behaviour (default) recomputes
	// φ and ψ only once per time moment.
	Rotate bool
	// Parallel and Workers are ignored: REF runs on the caller's
	// goroutine. Declared only because bench/replay.go and
	// bench/kernels.go set them; they go when bench/ stops naming them.
	Parallel bool
	Workers  int
}

// Ref is Algorithm REF: the exact, exponential (FPT in the number of
// organizations, Corollary 3.5) fair scheduler. It is the fairness
// reference every other algorithm is measured against. As a schedSet
// plug it maintains every non-empty coalition's schedule, smallest
// coalitions first (the paper completes them first: their values feed
// the larger ones' φ), checkpoints them in mask order, and targets each
// dispatching coalition's exact Shapley vector.
type Ref struct {
	*schedSet
	k     int
	grand model.Coalition

	masks  []model.Coalition // slot -> coalition mask, size-ordered
	slotOf []int             // coalition mask -> slot; [0] unused
	phi    [][]float64       // per slot: contribution vector
	adj    [][]float64       // per slot: rotation adjustments (Rotate only)
	// ct is the game-generic contribution engine: the dense coalition
	// value snapshot and the exact potentials live there; this file only
	// decides when to snapshot and which coalition to compute φ for.
	// game is the same values as a shapley.ContribGame, for estimators
	// outside this package.
	ct   *shapley.Contrib
	game shapley.ContribGame
	// ct holds the values at instant snapAt (-1 before the first
	// snapshot) of the coalitions 1..snapped.
	snapAt  model.Time
	snapped model.Coalition
}

// NewRef builds the reference scheduler for the instance.
func NewRef(inst *model.Instance, opts RefOptions) *Ref {
	k := len(inst.Orgs)
	r := &Ref{
		k:      k,
		grand:  model.Grand(k),
		slotOf: make([]int, 1<<uint(k)),
		ct:     shapley.NewContrib(k),
		snapAt: -1,
	}
	r.game = orgGame{r}
	for size := 1; size <= k; size++ {
		for mask := model.Coalition(1); mask <= r.grand; mask++ {
			if mask.Size() == size {
				r.slotOf[mask] = len(r.masks)
				r.masks = append(r.masks, mask)
			}
		}
	}
	q := sim.NewQueues(inst)
	slots := make([]*sim.Cluster, len(r.masks))
	r.phi = make([][]float64, len(slots))
	r.adj = make([][]float64, len(slots))
	for slot, mask := range r.masks {
		r.phi[slot] = make([]float64, k)
		if opts.Rotate {
			r.adj[slot] = make([]float64, k)
		}
		slots[slot] = q.NewCluster(mask, &deficitPolicy{name: "REF", target: r.phi[slot], adj: r.adj[slot]}, nil)
	}
	r.schedSet = newSchedSet("REF", 0, inst, r, q, slots)
	r.ckpt = r.slotOf[1:] // checkpoints list the clusters in mask order
	return r
}

// orgGame is the org-level instance of shapley.ContribGame — the game
// the paper's Section 2 defines, with organizations as players and
// v(C, t) the ψsp-sum of coalition C's own greedy schedule at t,
// answered by schedSet.valueAt from C's cluster's accounts. Callers
// outside this package should query at the clusters' current instant —
// e.g. the horizon, after Run.
type orgGame struct{ r *Ref }

// Players implements shapley.ContribGame.
func (g orgGame) Players() int { return g.r.k }

// ValueAt implements shapley.ContribGame.
func (g orgGame) ValueAt(c model.Coalition, t model.Time) int64 {
	if c.Empty() {
		return 0
	}
	return g.r.valueAt(g.r.slotOf[c], t)
}

// Game exposes REF's org-level cooperative game so the generic Shapley
// estimators (shapley.ExactAt, shapley.SampleAt) can consume the same
// coalition values the drivers schedule by.
func (r *Ref) Game() shapley.ContribGame { return r.game }

// Run drives every subcoalition schedule to the horizon and returns the
// grand coalition's result, with exact Shapley contributions — the
// stepping loop the streaming engine executes one event at a time.
func (r *Ref) Run(until model.Time) *Result { return runStepper(r, until) }

// snapshot loads the engine with the values at t of every coalition up
// to mask, in mask order — which puts every subcoalition of mask before
// it. Values at t do not depend on what starts at t (schedSet invariant
// 2), so the coalitions refreshed at one instant share a single pass
// over the slots; it runs as far as the largest refreshed mask — all
// 2^k−1 slots whenever the grand coalition's dispatch is contested —
// and each slot is read once per instant however many coalitions are
// refreshed at it.
func (r *Ref) snapshot(mask model.Coalition, t model.Time) {
	if r.snapAt != t {
		r.snapAt, r.snapped = t, 0
	}
	for r.snapped < mask {
		r.snapped++
		r.ct.SetValue(r.snapped, r.valueAt(r.slotOf[r.snapped], t))
	}
}

// retarget implements plug: the exact Shapley contributions of the
// slot's coalition (the UpdateVals procedure of Figure 1). Rotation
// adjustments reset alongside.
func (r *Ref) retarget(slot int, t model.Time) {
	mask := r.masks[slot]
	r.snapshot(mask, t)
	r.ct.PhiInto(mask, r.phi[slot])
	clear(r.adj[slot])
}

// phiAt implements plug: the grand coalition's exact contributions.
func (r *Ref) phiAt(t model.Time) []float64 {
	r.retarget(len(r.masks)-1, t)
	return r.PhiOf(r.grand)
}

// PhiOf returns the most recently computed contribution vector for a
// coalition. The grand coalition's is current after Run; any other
// coalition's dates from its last contested dispatch: an uncontested one
// does not refresh it.
func (r *Ref) PhiOf(mask model.Coalition) []float64 {
	return append([]float64(nil), r.phi[r.slotOf[mask]]...)
}

// RefAlgorithm adapts Ref to the Algorithm interface (REF is
// deterministic; the seed is recorded in checkpoints and otherwise
// ignored).
type RefAlgorithm struct{ Opts RefOptions }

// Name implements Algorithm.
func (a RefAlgorithm) Name() string { return "REF" }

// Run implements Algorithm.
func (a RefAlgorithm) Run(inst *model.Instance, until model.Time, _ int64) *Result {
	return NewRef(inst, a.Opts).Run(until)
}

// NewStepper implements StepperAlgorithm.
func (a RefAlgorithm) NewStepper(inst *model.Instance, seed int64) Stepper {
	r := NewRef(inst, a.Opts)
	r.seed = seed
	return r
}

// RestoreStepper implements StepperAlgorithm.
func (a RefAlgorithm) RestoreStepper(cp *Checkpoint) (Stepper, error) { return restoreStepper(a, cp) }
