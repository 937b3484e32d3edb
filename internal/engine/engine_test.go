package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
)

// steppers returns every incremental algorithm configuration the engine
// must drive byte-identically to the batch path: REF (and again under
// the rotation ablation), RAND, DIRECTCONTR, NBS and the five policy
// baselines.
func steppers() []core.StepperAlgorithm {
	return []core.StepperAlgorithm{
		core.RefAlgorithm{},
		core.RefAlgorithm{Opts: core.RefOptions{Rotate: true}},
		core.RandAlgorithm{Samples: 7},
		core.RandAlgorithm{Samples: 6, Opts: core.RandOptions{Stratified: true}},
		core.DirectContrAlgorithm(),
		core.NbsAlgorithm{},
		core.FromPolicy("RoundRobin", func() sim.Policy { return baseline.NewRoundRobin() }),
		core.FromPolicy("FairShare", func() sim.Policy { return baseline.NewFairShare() }),
		core.FromPolicy("UtFairShare", func() sim.Policy { return baseline.NewUtFairShare() }),
		core.FromPolicy("CurrFairShare", func() sim.Policy { return baseline.NewCurrFairShare() }),
		core.FromPolicy("FCFS", func() sim.Policy { return baseline.NewFCFS() }),
	}
}

// testInstance builds a randomized instance exercising the engine edge
// cases: same-instant release bursts, heterogeneous machine speeds,
// idle stretches, and organizations with no machines or no jobs.
func testInstance(r *rand.Rand, k int) *model.Instance {
	orgs := make([]model.Org, k)
	for i := range orgs {
		m := r.Intn(3)
		o := model.Org{Name: string(rune('A' + i)), Machines: m}
		if m > 0 && r.Intn(2) == 0 {
			o.Speeds = make([]int, m)
			for s := range o.Speeds {
				o.Speeds[s] = 1 + r.Intn(3)
			}
		}
		orgs[i] = o
	}
	if orgs[0].Machines == 0 {
		orgs[0].Machines = 1
		orgs[0].Speeds = nil
	}
	n := 4 + r.Intn(14)
	jobs := make([]model.Job, n)
	for i := range jobs {
		release := model.Time(r.Intn(12))
		if r.Intn(3) == 0 {
			release = model.Time(5)
		}
		jobs[i] = model.Job{Org: r.Intn(k), Release: release, Size: model.Time(1 + r.Intn(6))}
	}
	return model.MustNewInstance(orgs, jobs)
}

// clone copies an instance, so that runs compared with one another
// each own the one they append arrivals to.
func clone(in *model.Instance) *model.Instance {
	out := &model.Instance{Orgs: append([]model.Org(nil), in.Orgs...), Jobs: append([]model.Job(nil), in.Jobs...)}
	for i := range out.Orgs {
		out.Orgs[i].Speeds = append([]int(nil), in.Orgs[i].Speeds...)
	}
	return out
}

func assertSameRun(t *testing.T, label string, want, got *core.Result, wantStarts, gotStarts []sim.Start) {
	t.Helper()
	if len(wantStarts) != len(gotStarts) {
		t.Fatalf("%s: start counts differ: %d vs %d", label, len(wantStarts), len(gotStarts))
	}
	for i := range wantStarts {
		if wantStarts[i] != gotStarts[i] {
			t.Fatalf("%s: start %d differs: %+v vs %+v", label, i, wantStarts[i], gotStarts[i])
		}
	}
	for u := range want.Psi {
		if want.Psi[u] != got.Psi[u] {
			t.Fatalf("%s: ψ[%d] differs: %d vs %d", label, u, want.Psi[u], got.Psi[u])
		}
	}
	if want.Value != got.Value || want.Ptot != got.Ptot {
		t.Fatalf("%s: value/ptot differ: (%d,%d) vs (%d,%d)", label, want.Value, want.Ptot, got.Value, got.Ptot)
	}
	if (want.Phi == nil) != (got.Phi == nil) {
		t.Fatalf("%s: φ presence differs", label)
	}
	for u := range want.Phi {
		if want.Phi[u] != got.Phi[u] {
			t.Fatalf("%s: φ[%d] differs bitwise: %v vs %v", label, u, want.Phi[u], got.Phi[u])
		}
	}
}

// The tentpole equivalence: feeding jobs online — each before its
// release, interleaved with incremental Steps — must reproduce the
// batch Run byte-identically (schedules, ψ, bitwise φ) for every
// algorithm.
func TestStreamingMatchesBatch(t *testing.T) {
	for _, alg := range steppers() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				r := rand.New(rand.NewSource(500 + seed))
				k := 2 + r.Intn(4)
				inst := testInstance(r, k)
				horizon := inst.Horizon() + 2
				batch := alg.Run(clone(inst), horizon, seed)

				empty, err := model.NewInstance(inst.Orgs, nil)
				if err != nil {
					t.Fatal(err)
				}
				e := New(alg, empty, seed)
				next := 0
				for tm := model.Time(0); tm < horizon; tm += 3 {
					var arrivals []model.Job
					for next < len(inst.Jobs) && inst.Jobs[next].Release <= tm {
						arrivals = append(arrivals, inst.Jobs[next])
						next++
					}
					ids, err := e.Feed(arrivals)
					if err != nil {
						t.Fatalf("feed at %d: %v", tm, err)
					}
					for i, id := range ids {
						if id != arrivals[i].ID {
							t.Fatalf("fed job got ID %d, batch had %d", id, arrivals[i].ID)
						}
					}
					if _, err := e.Step(tm); err != nil {
						t.Fatalf("step to %d: %v", tm, err)
					}
				}
				if next < len(inst.Jobs) {
					t.Fatalf("test bug: %d jobs never fed", len(inst.Jobs)-next)
				}
				if _, err := e.Step(horizon); err != nil {
					t.Fatal(err)
				}
				assertSameRun(t, "streaming vs batch", batch, e.Result(), batch.Starts, e.Decisions())
			}
		})
	}
}

// Stepping granularity must not matter: one Step to the horizon equals
// many small Steps (the engine's FinishAt-resume path).
func TestStepGranularityInvariance(t *testing.T) {
	for _, alg := range steppers() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			r := rand.New(rand.NewSource(77))
			inst := testInstance(r, 3)
			horizon := inst.Horizon() + 1
			coarse := New(alg, clone(inst), 3)
			if _, err := coarse.Step(horizon); err != nil {
				t.Fatal(err)
			}
			fine := New(alg, clone(inst), 3)
			var collected []sim.Start
			for tm := model.Time(0); tm <= horizon; tm++ {
				starts, err := fine.Step(tm)
				if err != nil {
					t.Fatal(err)
				}
				collected = append(collected, starts...)
			}
			assertSameRun(t, "fine vs coarse", coarse.Result(), fine.Result(), coarse.Decisions(), collected)
		})
	}
}

func TestFeedValidation(t *testing.T) {
	inst := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1}},
		nil,
	)
	e := New(core.FromPolicy("FCFS", func() sim.Policy { return baseline.NewFCFS() }), inst, 1)
	if _, err := e.Step(10); err != nil {
		t.Fatal(err)
	}
	cases := []model.Job{
		{Org: 1, Release: 20, Size: 1}, // unknown org
		{Org: 0, Release: 20, Size: 0}, // zero size
		{Org: 0, Release: 5, Size: 1},  // released in the past
	}
	for i, j := range cases {
		if _, err := e.Feed([]model.Job{j}); err == nil {
			t.Errorf("case %d: Feed(%+v) accepted", i, j)
		}
	}
	if len(e.Instance().Jobs) != 0 {
		t.Fatalf("rejected feeds mutated the instance: %d jobs", len(e.Instance().Jobs))
	}
	if _, err := e.Feed([]model.Job{{Org: 0, Release: 10, Size: 2}}); err != nil {
		t.Fatalf("same-instant release rejected: %v", err)
	}
	if _, err := e.Step(e.Now()); err != nil {
		t.Fatal(err)
	}
	if got := len(e.Decisions()); got != 1 {
		t.Fatalf("same-instant job not dispatched: %d decisions", got)
	}
	if e.NextEventTime() != model.Time(12) {
		t.Fatalf("next event = %d, want completion at 12", e.NextEventTime())
	}
}

func TestStepBackwardsRejected(t *testing.T) {
	inst := model.MustNewInstance([]model.Org{{Name: "A", Machines: 1}}, nil)
	e := New(core.RefAlgorithm{}, inst, 0)
	if _, err := e.Step(5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(4); err == nil {
		t.Fatal("stepping backwards accepted")
	}
}

// Utilities reported mid-run must equal the batch run truncated at the
// same horizon — the engine's Result is not an approximation.
func TestMidRunResultMatchesTruncatedBatch(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	inst := testInstance(r, 3)
	horizon := inst.Horizon()/2 + 1
	for _, alg := range steppers() {
		batch := alg.Run(clone(inst), horizon, 9)
		e := New(alg, clone(inst), 9)
		if _, err := e.Step(horizon); err != nil {
			t.Fatal(err)
		}
		res := e.Result()
		assertSameRun(t, alg.Name(), batch, res, batch.Starts, e.Decisions())
		if math.Abs(res.Utilization-batch.Utilization) > 1e-15 {
			t.Fatalf("%s: utilization %v vs %v", alg.Name(), res.Utilization, batch.Utilization)
		}
	}
}

// TestSteadyStateStepAllocFree extends core's zero-alloc stepping
// budget through the engine: a StepToNextEvent over a pure-completion
// stream (decision-log bookkeeping and the zero-copy starts return
// included) allocates nothing. Sizes are distinct, so each measured
// call processes one real event; the run count stays below the
// fixture's 120 completions.
func TestSteadyStateStepAllocFree(t *testing.T) {
	const k, jobsPerOrg = 4, 30
	orgs := make([]model.Org, k)
	for i := range orgs {
		orgs[i] = model.Org{Name: string(rune('A' + i)), Machines: jobsPerOrg}
	}
	var jobs []model.Job
	for o := 0; o < k; o++ {
		for j := 0; j < jobsPerOrg; j++ {
			jobs = append(jobs, model.Job{Org: o, Release: 0, Size: model.Time(5 + 4*j + o)})
		}
	}
	inst, err := model.NewInstance(orgs, jobs)
	if err != nil {
		t.Fatal(err)
	}
	e := New(core.RefAlgorithm{}, inst, 1)
	if _, err := e.Step(1); err != nil {
		t.Fatal(err)
	}
	step := func() bool {
		_, stepped, err := e.StepToNextEvent()
		if err != nil {
			t.Fatal(err)
		}
		return stepped
	}
	if avg := testing.AllocsPerRun(100, func() { step() }); avg != 0 {
		t.Errorf("steady-state StepToNextEvent allocates %.2f times per run, budget is 0", avg)
	}
	if !step() {
		t.Fatal("events drained during measurement")
	}
}
