package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/model"
	"repro/internal/shapley"
	"repro/internal/sim"
)

// ValueOf returns coalition mask's value at the set's instant, as the
// plug reads it. The empty coalition has value 0.
func (r *Ref) ValueOf(mask model.Coalition) int64 {
	if mask.Empty() {
		return 0
	}
	return r.valueAt(r.slotOf[mask], r.now)
}

func randCoreInstance(r *rand.Rand, k int, unit bool) *model.Instance {
	orgs := make([]model.Org, k)
	for i := range orgs {
		orgs[i] = model.Org{Name: string(rune('A' + i)), Machines: 1 + r.Intn(2)}
	}
	n := 3 + r.Intn(12)
	jobs := make([]model.Job, n)
	for i := range jobs {
		size := model.Time(1)
		if !unit {
			size = model.Time(1 + r.Intn(6))
		}
		jobs[i] = model.Job{Org: r.Intn(k), Release: model.Time(r.Intn(15)), Size: size}
	}
	return model.MustNewInstance(orgs, jobs)
}

// REF's subset-formula contributions must agree with the generic Shapley
// evaluator applied to the final coalition values.
func TestRefPhiMatchesGenericShapley(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(3)
		in := randCoreInstance(r, k, false)
		horizon := in.Horizon() + 2
		ref := NewRef(in, RefOptions{})
		res := runStepper(ref, horizon)
		game := shapley.FuncGame{N: k, F: func(c model.Coalition) float64 {
			return float64(ref.ValueOf(c))
		}}
		want := shapley.Exact(game)
		for u := 0; u < k; u++ {
			if math.Abs(res.Phi[u]-want[u]) > 1e-6 {
				t.Fatalf("seed %d: φ[%d] = %v, generic Shapley %v", seed, u, res.Phi[u], want[u])
			}
		}
	}
}

// Efficiency: the contributions must distribute exactly the grand
// coalition's value (first Shapley axiom, Section 3).
func TestRefEfficiency(t *testing.T) {
	for seed := int64(20); seed < 28; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(4)
		in := randCoreInstance(r, k, false)
		res := Run(RefAlgorithm{}, in, in.Horizon()+1, 0)
		var sum float64
		for _, p := range res.Phi {
			sum += p
		}
		if math.Abs(sum-float64(res.Value)) > 1e-6*math.Max(1, float64(res.Value)) {
			t.Fatalf("seed %d: Σφ = %v, v(grand) = %d", seed, sum, res.Value)
		}
	}
}

// Proposition 5.5: the instance {a, b with two unit jobs each; c with
// none} has v({a,c}) = v({b,c}) = 4, v({a,b,c}) = 7, v({c}) = 0 at t=2 —
// the game is not supermodular.
func TestNonSupermodularExample(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{
			{Name: "a", Machines: 1},
			{Name: "b", Machines: 1},
			{Name: "c", Machines: 1},
		},
		[]model.Job{
			{Org: 0, Release: 0, Size: 1},
			{Org: 0, Release: 0, Size: 1},
			{Org: 1, Release: 0, Size: 1},
			{Org: 1, Release: 0, Size: 1},
		},
	)
	ref := NewRef(in, RefOptions{})
	runStepper(ref, 2)
	ac := model.Singleton(0).With(2)
	bc := model.Singleton(1).With(2)
	abc := model.Grand(3)
	c := model.Singleton(2)
	if got := ref.ValueOf(ac); got != 4 {
		t.Errorf("v({a,c}) = %d, want 4", got)
	}
	if got := ref.ValueOf(bc); got != 4 {
		t.Errorf("v({b,c}) = %d, want 4", got)
	}
	if got := ref.ValueOf(abc); got != 7 {
		t.Errorf("v({a,b,c}) = %d, want 7", got)
	}
	if got := ref.ValueOf(c); got != 0 {
		t.Errorf("v({c}) = %d, want 0", got)
	}
	// v(union) + v(intersection) < v(ac) + v(bc): not supermodular.
	if ref.ValueOf(abc)+ref.ValueOf(c) >= ref.ValueOf(ac)+ref.ValueOf(bc) {
		t.Error("expected the supermodularity inequality to fail on this instance")
	}
}

// A single organization scheduled by REF gets exactly the utility of a
// plain greedy run: with FIFO and identical machines the start times are
// forced.
func TestRefSingleOrgMatchesGreedy(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	in := randCoreInstance(r, 1, false)
	horizon := in.Horizon() + 1
	res := Run(RefAlgorithm{}, in, horizon, 0)
	plain := Run(FromPolicy("priority", func() sim.Policy { return baseline.NewPriority(0) }), in, horizon, 0)
	if res.Psi[0] != plain.Psi[0] {
		t.Fatalf("REF ψ = %d, plain greedy ψ = %d", res.Psi[0], plain.Psi[0])
	}
}

// REF's embedded subcoalition schedules must match running REF on the
// restricted instance — the recursion of Definition 3.1 is self-similar.
func TestRefSubcoalitionSelfSimilar(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	in := randCoreInstance(r, 3, false)
	horizon := in.Horizon() + 1
	ref := NewRef(in, RefOptions{})
	runStepper(ref, horizon)
	materialize(ref.set()) // every slot then holds its own accounts
	for mask := model.Coalition(1); mask < model.Grand(3); mask++ {
		sub := NewRef(in.Restrict(mask), RefOptions{})
		subRes := runStepper(sub, horizon)
		embedded := ref.Cluster(mask).PsiVector()
		for u := 0; u < 3; u++ {
			if embedded[u] != subRes.Psi[u] {
				t.Fatalf("coalition %v org %d: embedded ψ=%d, standalone ψ=%d",
					mask, u, embedded[u], subRes.Psi[u])
			}
		}
	}
}

// The rotation ablation must equalize perfectly symmetric organizations
// within a single instant: two orgs, one machine each, two unit jobs
// each at t=0. Faithful Figure 3 hands both machines to the lower-index
// org first; rotation alternates.
func TestRefRotationEqualizesSymmetricOrgs(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1}, {Name: "B", Machines: 1}},
		[]model.Job{
			{Org: 0, Release: 0, Size: 1},
			{Org: 0, Release: 0, Size: 1},
			{Org: 1, Release: 0, Size: 1},
			{Org: 1, Release: 0, Size: 1},
		},
	)
	rotate := Run(RefAlgorithm{Opts: RefOptions{Rotate: true}}, in, 2, 0)
	if rotate.Psi[0] != rotate.Psi[1] {
		t.Errorf("rotation: ψ = %v, want equal", rotate.Psi)
	}
	faithful := Run(RefAlgorithm{}, in, 2, 0)
	if faithful.Psi[0] == faithful.Psi[1] {
		t.Log("faithful selection also equalized (acceptable, tie-break dependent)")
	}
	// Both must schedule all four unit jobs with the same total value
	// (Proposition 5.4: unit jobs, greedy ⇒ same coalition value).
	if rotate.Value != faithful.Value {
		t.Errorf("values differ: rotate %d vs faithful %d", rotate.Value, faithful.Value)
	}
}

// REF is deterministic: two runs produce identical schedules.
func TestRefDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	in := randCoreInstance(r, 3, false)
	a := Run(RefAlgorithm{}, in, in.Horizon(), 1)
	b := Run(RefAlgorithm{}, in, in.Horizon(), 2) // seed must not matter
	for i := range a.Starts {
		if a.Starts[i] != b.Starts[i] {
			t.Fatalf("REF not deterministic at start %d", i)
		}
	}
}

// The dummy axiom on the scheduling game: an organization with no jobs
// and no machines contributes nothing and receives nothing.
func TestRefDummyOrganization(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{
			{Name: "A", Machines: 2},
			{Name: "dummy", Machines: 0},
			{Name: "C", Machines: 1},
		},
		[]model.Job{
			{Org: 0, Release: 0, Size: 3},
			{Org: 2, Release: 1, Size: 2},
			{Org: 0, Release: 2, Size: 4},
		},
	)
	res := Run(RefAlgorithm{}, in, in.Horizon()+1, 0)
	if math.Abs(res.Phi[1]) > 1e-9 {
		t.Errorf("dummy organization has φ = %v, want 0", res.Phi[1])
	}
	if res.Psi[1] != 0 {
		t.Errorf("dummy organization has ψ = %d, want 0", res.Psi[1])
	}
}

// A cluster alone on its queues steps at every release of its instance,
// a non-member's too. That step starts nothing, and the lone cluster
// schedules exactly as its coalition's slot of a schedule set does.
func TestNarrowSelfDrivenClusterMatchesRefSlot(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1}, {Name: "B", Machines: 1}},
		[]model.Job{
			{Org: 1, Release: 0, Size: 4},
			{Org: 0, Release: 2, Size: 3},
			{Org: 0, Release: 2, Size: 1},
			{Org: 1, Release: 3, Size: 2},
			{Org: 0, Release: 4, Size: 2},
			{Org: 1, Release: 7, Size: 5},
		},
	)
	const h = 20
	q := sim.NewQueues(in)
	lone := q.NewCluster(model.Singleton(0), baseline.NewFCFS(), nil)
	if !lone.Step(h) || lone.CaptureState().Now != 0 || len(lone.Starts()) != 0 {
		t.Fatalf("first step to %d with starts %v; want organization B's release at 0, starting nothing", lone.CaptureState().Now, lone.Starts())
	}
	for lone.Step(h) {
	}
	q.AdvanceTo(h)
	lone.AdvanceTo(h)

	// The oracle steps every slot at every instant, so each start of the
	// {A} slot, which keeps no log, is among its running entries straight
	// after the step that made it.
	r := NewRef(in, RefOptions{})
	o := newOracle(r.set())
	slot := r.Cluster(model.Singleton(0))
	var starts []sim.Start
	seen := map[sim.Start]bool{}
	for o.StepNext(h) {
		for _, e := range slot.CaptureState().Running {
			if s := (sim.Start{Job: e.Job, Org: in.Jobs[e.Job].Org, Machine: e.Machine, At: e.Start}); !seen[s] {
				seen[s] = true
				starts = append(starts, s)
			}
		}
	}
	o.FinishAt(h)
	if got, want := fmt.Sprint(lone.Starts()), fmt.Sprint(starts); got != want || len(starts) != 3 {
		t.Errorf("lone cluster of {A} started %s, the REF slot %s", got, want)
	}
	if lone.Psi(0) != slot.Psi(0) || lone.Value() != slot.Value() {
		t.Errorf("lone cluster: ψ_A %d, value %d; REF slot: ψ_A %d, value %d", lone.Psi(0), lone.Value(), slot.Psi(0), slot.Value())
	}
}

// Cluster exposes a subcoalition's cluster (read-only use intended);
// tests compare subcoalition schedules against independent simulations.
// Only the grand coalition's keeps a decision log: Starts() is nil for
// every other mask.
func (r *Ref) Cluster(mask model.Coalition) *sim.Cluster { return r.slots[r.slotOf[mask]] }
