package core

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/model"
	"repro/internal/sim"
)

// checkHeapMatchesRebuild verifies the live event heap against the
// keying rule rebuildHeap implements — mask present iff its cluster's
// NextEventTime != sim.MaxTime, keyed by it — plus the structural
// invariants the incremental operations (fix/remove/update) must
// maintain: the position index is exact and the heap property holds.
// Content equality under a deterministic total order (key, then mask)
// implies the incremental heap pops the same sequence a fresh rebuild
// would, so this is the incremental-vs-rebuild differential.
func checkHeapMatchesRebuild(t *testing.T, r *Ref) {
	t.Helper()
	if !r.driverReady {
		return
	}
	h := r.h
	for i, m := range h.heap {
		if h.pos[m] != i {
			t.Fatalf("pos[%v] = %d, heap slot is %d", m, h.pos[m], i)
		}
	}
	inHeap := make(map[model.Coalition]bool, len(h.heap))
	for _, m := range h.heap {
		inHeap[m] = true
	}
	for mask := model.Coalition(1); mask <= r.grand; mask++ {
		k := r.sims[mask].NextEventTime()
		if k == sim.MaxTime {
			if inHeap[mask] {
				t.Fatalf("mask %v in heap but its cluster is drained", mask)
			}
			if h.pos[mask] != -1 {
				t.Fatalf("drained mask %v has pos %d, want -1", mask, h.pos[mask])
			}
			continue
		}
		if !inHeap[mask] {
			t.Fatalf("mask %v has next event %d but is missing from the heap", mask, k)
		}
		if h.key[mask] != k {
			t.Fatalf("mask %v keyed %d, cluster's next event is %d", mask, h.key[mask], k)
		}
	}
	for i := 1; i < len(h.heap); i++ {
		if h.less(i, (i-1)/2) {
			t.Fatalf("heap property violated at slot %d (mask %v)", i, h.heap[i])
		}
	}
}

// A randomized interleaving of event stepping, withdrawal and
// re-injection must leave the incrementally maintained event heap in
// exactly the state a fresh rebuildHeap would produce after every
// mutation, and the run must end byte-identical to the scan driver
// under the same mutation sequence (the executable spec: the scan
// driver has no heap to corrupt).
//
// Mutations happen at synchronized instants — drain both drivers to a
// common time T, FinishAt(T), then withdraw/reinject on both. Mid-step
// mutation acceptance is clock-dependent (a reinjection whose release
// is now in the past is rejected per cluster), and the heap driver
// deliberately lets untouched clusters' clocks lag, so only at
// quiesced instants do the two drivers define the same accept/reject
// outcomes to compare.
func TestIncrementalWithdrawHeapDifferential(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(5000 + seed))
		k := 2 + r.Intn(5)
		in := diffInstance(r, k)
		horizon := in.Horizon() + 2
		href := NewRef(in, RefOptions{})
		sref := NewRef(in, RefOptions{Driver: DriverScan})

		var withdrawn []int
		const phases = 8
		for phase := 1; phase <= phases; phase++ {
			target := horizon * model.Time(phase) / phases
			for href.StepNext(target) {
				checkHeapMatchesRebuild(t, href)
			}
			for sref.StepNext(target) {
			}
			href.FinishAt(target)
			sref.FinishAt(target)
			checkHeapMatchesRebuild(t, href)

			for m := 0; m < 5; m++ {
				if r.Intn(2) == 0 || len(withdrawn) == 0 {
					id := r.Intn(len(in.Jobs))
					herr := href.Withdraw(id)
					serr := sref.Withdraw(id)
					if (herr != nil) != (serr != nil) {
						t.Fatalf("seed %d phase %d: withdraw %d: heap err=%v, scan err=%v", seed, phase, id, herr, serr)
					}
					if herr == nil {
						withdrawn = append(withdrawn, id)
					}
				} else {
					j := r.Intn(len(withdrawn))
					id := withdrawn[j]
					herr := href.Inject([]int{id})
					serr := sref.Inject([]int{id})
					if (herr != nil) != (serr != nil) {
						t.Fatalf("seed %d phase %d: reinject %d: heap err=%v, scan err=%v", seed, phase, id, herr, serr)
					}
					if herr == nil {
						// A rejected reinjection (release now in the past)
						// stays withdrawn; it would keep failing.
						withdrawn = append(withdrawn[:j], withdrawn[j+1:]...)
					}
				}
				checkHeapMatchesRebuild(t, href)
			}
		}

		for href.StepNext(horizon) {
			checkHeapMatchesRebuild(t, href)
		}
		for sref.StepNext(horizon) {
		}
		href.FinishAt(horizon)
		sref.FinishAt(horizon)
		assertSameResult(t, "incremental heap vs scan after withdraw/reinject", sref.ResultAt(horizon), href.ResultAt(horizon))
	}
}

// steadyStepper builds a stepper on a workload whose every subcoalition
// starts all of its jobs at release (per-org machines ≥ per-org jobs),
// primed past the release-instant dispatches: the remaining event
// stream is pure completions, one per instant (sizes are distinct) —
// the steady serving state.
func steadyStepper(t *testing.T, alg StepperAlgorithm) Stepper {
	t.Helper()
	const k, jobsPerOrg = 3, 40
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
	in, err := model.NewInstance(orgs, jobs)
	if err != nil {
		t.Fatal(err)
	}
	s := alg.NewStepper(in, 1)
	for s.StepNext(0) {
	}
	return s
}

// Steady-state stepping is zero-alloc by budget for every stepper
// family (serial configurations — the parallel paths spawn worker
// goroutines by design): completions, accounting, value re-snapshots,
// heap sifts, φ fills and dispatch probes must all run out of the
// steppers' preallocated scratch. AllocsPerRun truncates its average,
// so every measured call has to process a real event: the run count
// stays below the fixture's 120 completions and the test checks that
// events were still left afterwards.
func TestSteadyStateStepAllocFree(t *testing.T) {
	const horizon = model.Time(1 << 30)
	cases := []struct {
		name string
		alg  StepperAlgorithm
	}{
		{"REF", RefAlgorithm{}},
		{"RAND", RandAlgorithm{Samples: 15, Opts: RandOptions{Workers: 1}}},
		{"policy-FCFS", FromPolicy("FCFS", func() sim.Policy { return baseline.NewFCFS() })},
		{"policy-DirectContr", DirectContrAlgorithm().(StepperAlgorithm)},
		{"NBS", NbsAlgorithm{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := steadyStepper(t, tc.alg)
			if avg := testing.AllocsPerRun(100, func() { s.StepNext(horizon) }); avg != 0 {
				t.Errorf("steady-state StepNext allocates %.2f times per run, budget is 0", avg)
			}
			if !s.StepNext(horizon) {
				t.Fatal("events drained during measurement")
			}
		})
	}
}

// The incremental Withdraw path is on the same budget: one withdraw +
// reinject cycle of a job queued in every schedule re-keys the owner's
// 2^(k-1) masks with in-place heap sifts and allocates nothing.
func TestWithdrawReinjectAllocFree(t *testing.T) {
	const k, jobsPerOrg = 8, 6
	orgs := make([]model.Org, k)
	for i := range orgs {
		orgs[i] = model.Org{Name: string(rune('A' + i)), Machines: 1}
	}
	var jobs []model.Job
	for o := 0; o < k; o++ {
		for j := 0; j < jobsPerOrg; j++ {
			jobs = append(jobs, model.Job{Org: o, Release: 0, Size: model.Time(40 + j)})
		}
	}
	in, err := model.NewInstance(orgs, jobs)
	if err != nil {
		t.Fatal(err)
	}
	s := RefAlgorithm{}.NewStepper(in, 1)
	for s.StepNext(0) { // dispatch the release instant; queues stay deep
	}
	id := in.Jobs[len(in.Jobs)-1].ID // last job: queued everywhere
	reinject := []int{id}
	if avg := testing.AllocsPerRun(100, func() {
		if err := s.Withdraw(id); err != nil {
			t.Fatal(err)
		}
		if err := s.Inject(reinject); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Withdraw + Inject allocates %.2f times per cycle, budget is 0", avg)
	}
}
