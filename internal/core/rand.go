package core

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/baseline"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RandOptions tunes Algorithm RAND's execution. Results are a pure
// function of (instance, samples, seed, Stratified): every sampled
// permutation is drawn from its own SplitMix64-derived RNG stream.
type RandOptions struct {
	// Workers is ignored: RAND runs on the caller's goroutine. Declared
	// only because bench/replay.go sets it; goes when bench/ stops
	// naming it.
	Workers int
	// Stratified draws the N permutations as cyclic rotations of
	// ⌈N/k⌉ uniform base permutations (position-stratified
	// sampling): when k divides N every organization appears at every
	// predecessor-set size equally often (the last round is truncated
	// otherwise), cutting the estimate's variance at an equal
	// permutation budget. Each rotation of a uniform permutation is
	// uniform, so the φ estimate stays unbiased for any N.
	Stratified bool
}

// RandSched is Algorithm RAND (Figure 6): contributions are estimated by
// sampling N permutations of the organizations; for every organization u
// and sampled permutation, the marginal value of u joining its
// predecessors is measured on simplified (FCFS) schedules of the sampled
// coalitions. For unit-size jobs the coalition value is
// schedule-independent (Proposition 5.4), making the estimate exact in
// expectation and the algorithm an FPRAS (Theorems 5.6–5.7); for general
// jobs it is the paper's strongest heuristic. As a schedSet plug it
// maintains one FCFS schedule per distinct sampled coalition, in
// ascending mask order, then the decision schedule (checkpointed
// first), and targets the sampled estimate φ.
type RandSched struct {
	*schedSet
	samples int
	// preds[u] lists, per sampled permutation, the slots of u's
	// predecessor set and of that set with u added.
	preds [][]marginal
	phi   []float64
}

// marginal is one sampled term v(pred∪{u}) − v(pred), as slots; pred is
// -1 for the empty predecessor set.
type marginal struct{ pred, with int }

// NewRandSched samples the permutations with the given seed and builds
// FCFS clusters for every distinct sampled coalition (Prepare in
// Figure 6).
func NewRandSched(inst *model.Instance, samples int, seed int64, opts RandOptions) *RandSched {
	if samples < 1 {
		panic("core: RAND needs at least one sampled permutation")
	}
	k := len(inst.Orgs)
	r := &RandSched{samples: samples, preds: make([][]marginal, k), phi: make([]float64, k)}
	perms := make([][]int, samples)
	for s := range perms {
		// Plain mode: permutation s comes from stream s. Stratified
		// mode: s is rotation s%k of the base permutation from stream
		// s/k.
		stream, shift := int64(s), 0
		if opts.Stratified {
			stream, shift = int64(s/k), s%k
		}
		rng := stats.NewStreamRand(seed, stream)
		base := make([]int, k)
		for i := range base {
			base[i] = i
		}
		rng.Shuffle(k, func(i, j int) { base[i], base[j] = base[j], base[i] })
		if shift == 0 {
			perms[s] = base
			continue
		}
		perm := make([]int, k)
		for i := range perm {
			perm[i] = base[(i+shift)%k]
		}
		perms[s] = perm
	}
	slotOf := map[model.Coalition]int{0: -1} // construction only: the hot path reads preds
	for _, perm := range perms {
		var c model.Coalition
		for _, u := range perm {
			c = c.With(u)
			slotOf[c] = 0
		}
	}
	masks := make([]model.Coalition, 0, len(slotOf)-1)
	for mask := range slotOf {
		if !mask.Empty() {
			masks = append(masks, mask)
		}
	}
	slices.Sort(masks)
	q := sim.NewQueues(inst)
	slots := make([]*sim.Cluster, len(masks)+1)
	for i, mask := range masks {
		slots[i] = q.NewCluster(mask, baseline.NewFCFS(), nil)
		slotOf[mask] = i
	}
	for _, perm := range perms {
		var c model.Coalition
		for _, u := range perm {
			r.preds[u] = append(r.preds[u], marginal{pred: slotOf[c], with: slotOf[c.With(u)]})
			c = c.With(u)
		}
	}
	src := stats.NewSource(seed)
	slots[len(masks)] = q.NewCluster(model.Grand(k), &deficitPolicy{name: "RAND", target: r.phi}, rand.New(src))
	r.schedSet = newSchedSet(randName(samples, opts), seed, inst, r, q, slots)
	r.src = src
	r.ckpt = make([]int, len(slots)) // the decision cluster first, then the sampled ones
	r.ckpt[0] = len(masks)
	for i := range masks {
		r.ckpt[1+i] = i
	}
	return r
}

// retarget implements plug: only the decision schedule selects by φ;
// the sampled schedules dispatch FCFS.
func (r *RandSched) retarget(slot int, t model.Time) {
	if slot == len(r.slots)-1 {
		r.computePhi(t)
	}
}

// phiAt implements plug.
func (r *RandSched) phiAt(t model.Time) []float64 {
	r.computePhi(t)
	return append([]float64(nil), r.phi...)
}

// computePhi refreshes the Monte-Carlo contribution estimates at t:
// φ[u] = (1/N)·Σ over sampled permutations of v(pred∪{u}) − v(pred),
// the marginals summed as integers and divided once, so the estimate
// does not depend on the order the permutations were drawn in.
func (r *RandSched) computePhi(t model.Time) {
	for u, terms := range r.preds {
		var sum int64
		for _, m := range terms {
			sum += r.valueAt(m.with, t)
			if m.pred >= 0 {
				sum -= r.valueAt(m.pred, t)
			}
		}
		r.phi[u] = float64(sum) / float64(r.samples)
	}
}

// randName labels a RAND configuration; shared by RandSched results and
// RandAlgorithm so the two can never drift apart.
func randName(samples int, opts RandOptions) string {
	if opts.Stratified {
		return fmt.Sprintf("Rand(N=%d,stratified)", samples)
	}
	return fmt.Sprintf("Rand(N=%d)", samples)
}

// RandAlgorithm is RAND as a StepperAlgorithm.
type RandAlgorithm struct {
	Samples int
	Opts    RandOptions
}

// Name implements StepperAlgorithm.
func (a RandAlgorithm) Name() string { return randName(a.Samples, a.Opts) }

// NewStepper implements StepperAlgorithm.
func (a RandAlgorithm) NewStepper(inst *model.Instance, seed int64) Stepper {
	return NewRandSched(inst, a.Samples, seed, a.Opts)
}

// RestoreStepper implements StepperAlgorithm: the sampled permutations
// are a pure function of seed, sample count and options, so NewStepper
// re-derives the same slots.
func (a RandAlgorithm) RestoreStepper(cp *Checkpoint) (Stepper, error) { return restoreStepper(a, cp) }
