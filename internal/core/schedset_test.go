package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// diffFamilies lists one algorithm per stepper family (RAND twice, for
// both samplers) — the rows of every touched-set-vs-reference
// differential.
func diffFamilies() []StepperAlgorithm {
	return []StepperAlgorithm{
		RefAlgorithm{},
		RandAlgorithm{Samples: 12},
		RandAlgorithm{Samples: 12, Opts: RandOptions{Stratified: true}},
		NbsAlgorithm{},
		FromPolicy("RoundRobin", func() sim.Policy { return baseline.NewRoundRobin() }),
	}
}

// setOf returns the schedule set under a stepper.
func setOf(st Stepper) *schedSet { return st.(interface{ set() *schedSet }).set() }

// newModeStepper starts a run in the touched-set mode or in the
// in-package reference mode, whatever the algorithm's own default (a
// one-slot policy set defaults to the reference mode; forcing it onto
// the keys exercises the one-key array too).
func newModeStepper(alg StepperAlgorithm, in *model.Instance, seed int64, scan bool) Stepper {
	st := alg.NewStepper(in, seed)
	s := setOf(st)
	s.scan = scan
	s.rekeyAll()
	return st
}

// checkKeysMatchRebuild verifies the live key arrays against the keying
// rule rekeyAll implements: keys[i] is slot i's cluster's next
// completion (sim.MaxTime when nothing runs) and open[i] its coalition
// while it has a free machine — the whole invariant of the touched-set
// mode, so equality here means the incrementally maintained keys select
// the same touched sets a fresh rebuild would.
func checkKeysMatchRebuild(t *testing.T, s *schedSet) {
	t.Helper()
	if s.scan {
		t.Fatal("key check on a reference-mode set")
	}
	if len(s.keys) != len(s.slots) || len(s.open) != len(s.slots) {
		t.Fatalf("%d keys and %d open masks for %d slots", len(s.keys), len(s.open), len(s.slots))
	}
	for slot, c := range s.slots {
		if k := c.NextCompletion(); s.keys[slot] != k {
			t.Fatalf("slot %d keyed %d, cluster's next completion is %d", slot, s.keys[slot], k)
		}
		if free := c.FreeMachines() > 0; s.open[slot] != c.Coalition() && free || s.open[slot] != 0 && !free {
			t.Fatalf("slot %d open to %v with %d free machines", slot, s.open[slot], c.FreeMachines())
		}
	}
}

// A randomized interleaving of event stepping, withdrawal and
// injection must leave the incrementally maintained keys in exactly the
// state a fresh rekeyAll would produce after every operation, and the
// run must end byte-identical to the reference mode under the same
// mutation sequence (the executable spec: the reference mode has no
// keys to corrupt) — for every stepper family, since the keys belong to
// the shared core. A withdrawn job comes back the way migration brings
// work in: as a new job, released at the mutation instant.
//
// Mutations happen at synchronized instants — drain both runs to a
// common time T, FinishAt(T), then withdraw/inject on both. The
// touched-set mode deliberately lets untouched clusters' clocks lag
// mid-step, so only at quiesced instants do the two modes stand at the
// same clock to mutate.
func TestIncrementalWithdrawHeapDifferential(t *testing.T) {
	for _, alg := range diffFamilies() {
		for seed := int64(0); seed < 25; seed++ {
			r := rand.New(rand.NewSource(5000 + seed))
			k := 2 + r.Intn(5)
			in := diffInstance(r, k)
			horizon := in.Horizon() + 2
			heap := newModeStepper(alg, in, seed, false)
			scan := newModeStepper(alg, in, seed, true)
			hs := setOf(heap)
			checkKeysMatchRebuild(t, hs)

			var withdrawn []int
			const phases = 8
			for phase := 1; phase <= phases; phase++ {
				target := horizon * model.Time(phase) / phases
				for heap.StepNext(target) {
					checkKeysMatchRebuild(t, hs)
				}
				for scan.StepNext(target) {
				}
				heap.FinishAt(target)
				scan.FinishAt(target)
				checkKeysMatchRebuild(t, hs)
				if h, s := heap.NextEventTime(), scan.NextEventTime(); h != s {
					t.Fatalf("%s seed %d phase %d: next event heap=%d scan=%d", alg.Name(), seed, phase, h, s)
				}

				for m := 0; m < 5; m++ {
					if r.Intn(2) == 0 || len(withdrawn) == 0 {
						id := r.Intn(len(in.Jobs))
						herr := heap.Withdraw(id)
						serr := scan.Withdraw(id)
						if (herr != nil) != (serr != nil) {
							t.Fatalf("%s seed %d phase %d: withdraw %d: heap err=%v, scan err=%v", alg.Name(), seed, phase, id, herr, serr)
						}
						if herr == nil {
							withdrawn = append(withdrawn, id)
						}
					} else {
						j := r.Intn(len(withdrawn))
						job := in.Jobs[withdrawn[j]]
						withdrawn = append(withdrawn[:j], withdrawn[j+1:]...)
						job.ID, job.Release = len(in.Jobs), target
						in.Jobs = append(in.Jobs, job) // the instance both steppers share
						if herr, serr := heap.Inject([]int{job.ID}), scan.Inject([]int{job.ID}); herr != nil || serr != nil {
							t.Fatalf("%s seed %d phase %d: inject %d: heap err=%v, scan err=%v", alg.Name(), seed, phase, job.ID, herr, serr)
						}
					}
					checkKeysMatchRebuild(t, hs)
				}
			}

			for heap.StepNext(horizon) {
				checkKeysMatchRebuild(t, hs)
			}
			for scan.StepNext(horizon) {
			}
			heap.FinishAt(horizon)
			scan.FinishAt(horizon)
			assertSameResult(t, alg.Name()+": incremental keys vs reference after withdraw/inject", scan.ResultAt(horizon), heap.ResultAt(horizon))
		}
	}
}

// countingPlug forwards to a plug and counts its retarget calls.
type countingPlug struct {
	plug
	retargets int
}

func (p *countingPlug) retarget(slot int, t model.Time) {
	p.retargets++
	p.plug.retarget(slot, t)
}

// dispatchCount is what countingPolicy observes across a set's slots.
type dispatchCount struct{ dispatches, contested int }

// countingPolicy forwards to a policy and counts dispatches: the first
// Select a slot makes at an instant opens one, and the dispatch is
// contested when two or more organizations wait at that moment —
// recounted from the view, not asked of the cluster.
type countingPolicy struct {
	sim.Policy
	view  *sim.View
	at    model.Time
	count *dispatchCount
}

func (p *countingPolicy) Attach(v *sim.View, rng *rand.Rand) {
	p.view, p.at = v, -1
	p.Policy.Attach(v, rng)
}

func (p *countingPolicy) Select(t model.Time, m int) int {
	if t != p.at {
		p.at = t
		p.count.dispatches++
		waiting := 0
		for u := 0; u < p.view.Orgs(); u++ {
			if p.view.Waiting(u) > 0 {
				waiting++
			}
		}
		if waiting >= 2 {
			p.count.contested++
		}
	}
	return p.Policy.Select(t, m)
}

// The work a REF step does, counted on a stream shaped like the
// shapley-k8 benchmark workload — 8 organizations on 16 Zipf-split
// machines, 40 jobs of size 1..30 per 100 ticks, organizations drawn
// with a tilt toward low indices — in both modes of the loop:
//
//   - touched slots per step, in the default mode split by what touched
//     them: a completion, or a release of a member while the slot had a
//     free machine; and the release-member slots skipped because every
//     machine was busy — none of which, recounted from its view, could
//     have dispatched. The touched set stays well above 2^k/k, where
//     k·log-cost re-sifts would have matched the flat 2^k key scan, and
//     at most half of the reference mode's 2^k−1 — the counted form of
//     the touched-set mode's cost claim (EXPERIMENTS.md §3);
//   - dispatching slots, equal per step in both modes, and among them
//     the contested ones, where two or more organizations wait: only
//     those need a target vector;
//   - retarget calls: one per contested dispatch in the default mode,
//     one per dispatch in the reference mode.
//
// Most dispatches are uncontested; the test fails if fewer than 80 % are,
// since skipping their refresh is what the default mode saves.
func TestTouchedSetDensity(t *testing.T) {
	const k, machines, rounds, perRound = 8, 16, 60, 40
	r := rand.New(rand.NewSource(7000))
	orgs := make([]model.Org, k)
	for i, m := range stats.ZipfSplit(machines, k, 1) {
		orgs[i] = model.Org{Name: string(rune('A' + i)), Machines: m}
	}
	var jobs []model.Job
	releasing := map[model.Time]model.Coalition{}
	for round := 0; round < rounds; round++ {
		for j := 0; j < perRound; j++ {
			job := model.Job{
				Org:     min(r.Intn(k), r.Intn(k)),
				Release: model.Time(100*round + r.Intn(100)),
				Size:    model.Time(1 + r.Intn(30)),
			}
			jobs = append(jobs, job)
			releasing[job.Release] = releasing[job.Release].With(job.Org)
		}
	}
	in := model.MustNewInstance(orgs, jobs)
	dispatches := map[RefDriver][]int{} // per step
	for _, driver := range []RefDriver{DriverHeap, DriverScan} {
		ref := NewRef(in, RefOptions{Driver: driver})
		s := ref.set()
		plug := &countingPlug{plug: s.plug}
		s.plug = plug
		var count dispatchCount
		s.q = sim.NewQueues(in)
		for i, c := range s.slots {
			s.slots[i] = s.q.NewCluster(c.Coalition(), &countingPolicy{Policy: c.Policy(), count: &count}, nil)
			if i < len(s.slots)-1 {
				s.slots[i].DiscardStarts()
			}
		}
		s.rekeyAll()
		steps, touched, slots := 0, 0, len(s.slots)
		var byCompletion, byRelease, skipped int
		var skip []int
		for at := s.NextEventTime(); at <= 100*rounds; at = s.NextEventTime() {
			skip = skip[:0]
			for i, key := range s.keys {
				switch {
				case key == at:
					byCompletion++
				case releasing[at]&s.slots[i].Coalition() == 0:
				case s.open[i] != 0:
					byRelease++
				default:
					skip = append(skip, i)
				}
			}
			before := count.dispatches
			s.StepNext(at)
			steps++
			dispatches[driver] = append(dispatches[driver], count.dispatches-before)
			if s.scan {
				touched += slots
				continue
			}
			touched += len(s.touched)
			skipped += len(skip)
			for _, i := range skip {
				// Every machine of the coalition runs a job: nothing could start.
				v, busy, pool := s.slots[i].View(), 0, 0
				s.slots[i].Coalition().EachMember(func(u int) { busy, pool = busy+v.Running(u), pool+in.Orgs[u].Machines })
				if busy < pool {
					t.Fatalf("step at %d skipped slot %d with %d of %d machines busy", at, i, busy, pool)
				}
			}
		}
		per := func(n int) float64 { return float64(n) / float64(steps) }
		uncontested := 1 - float64(count.contested)/float64(count.dispatches)
		split := ""
		if !s.scan {
			split = fmt.Sprintf(" (%.1f by a completion, %.1f by a release with a free machine; %.1f release members skipped, no free machine)", per(byCompletion), per(byRelease), per(skipped))
			if byCompletion+byRelease != touched {
				t.Errorf("%d slots touched, %d by a completion and %d by a release", touched, byCompletion, byRelease)
			}
		}
		t.Logf("%s: %d steps; per step %.1f/%d slots touched%s, %.1f dispatch, %.1f contested, %.1f retargets; %.1f %% uncontested",
			driver, steps, per(touched), slots, split, per(count.dispatches), per(count.contested), per(plug.retargets), 100*uncontested)
		if want := map[RefDriver]int{DriverHeap: count.contested, DriverScan: count.dispatches}[driver]; plug.retargets != want {
			t.Errorf("%s mode: %d retargets, want %d (%d dispatches, %d contested)", driver, plug.retargets, want, count.dispatches, count.contested)
		}
		if uncontested < 0.8 {
			t.Errorf("%s mode: %.1f %% of dispatches uncontested, below 80 %%: the refresh the default mode skips is no longer the common case", driver, 100*uncontested)
		}
		if driver == DriverHeap && per(touched) < float64(slots)/4 {
			t.Errorf("mean touched set %.1f of %d slots: the stream is sparse, the premise of the flat key scan does not hold on it", per(touched), slots)
		}
		if driver == DriverHeap && 2*touched > slots*steps {
			t.Errorf("mean touched set %.1f of %d slots: the default mode does more than half the reference mode's slot-steps", per(touched), slots)
		}
	}
	if !slices.Equal(dispatches[DriverHeap], dispatches[DriverScan]) {
		t.Errorf("dispatches per step differ between the modes:\n%v\n%v", dispatches[DriverHeap], dispatches[DriverScan])
	}
}

// RAND (both samplers) and NBS, which before the shared core advanced
// every schedule at every event, must reproduce the reference mode
// exactly through the touched-set loop: same starts, ψ and bit-equal
// φ/targets, at full and truncated horizons.
func TestHeapDriverMatchesScanDriverRandNbs(t *testing.T) {
	for _, alg := range diffFamilies()[1:4] {
		for seed := int64(0); seed < 30; seed++ {
			r := rand.New(rand.NewSource(6000 + seed))
			k := 2 + r.Intn(5)
			in := diffInstance(r, k)
			for _, horizon := range []model.Time{in.Horizon() + 2, in.Horizon()/2 + 1} {
				scan := runStepper(newModeStepper(alg, in, seed, true), horizon)
				heap := runStepper(newModeStepper(alg, in, seed, false), horizon)
				label := fmt.Sprintf("%s seed %d horizon %d", alg.Name(), seed, horizon)
				assertSameResult(t, label, scan, heap)
				for u := range scan.Phi {
					if math.Float64bits(scan.Phi[u]) != math.Float64bits(heap.Phi[u]) {
						t.Fatalf("%s: φ[%d] differs bitwise: %v vs %v", label, u, scan.Phi[u], heap.Phi[u])
					}
				}
			}
		}
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
// family: completions, accounting, re-keys, φ fills and dispatch
// probes must all run out of the steppers' preallocated scratch (the
// daemon's own configuration, on touched sets of 16 and more, is held
// to it in daemon's TestSessionAlgorithmsStepAllocFree). AllocsPerRun
// truncates its average, so every measured call has to process a real
// event: the run count stays below the fixture's 120 completions and
// the test checks that events were still left afterwards.
func TestSteadyStateStepAllocFree(t *testing.T) {
	const horizon = model.Time(1 << 30)
	cases := []struct {
		name string
		alg  StepperAlgorithm
	}{
		{"REF", RefAlgorithm{}},
		{"RAND", RandAlgorithm{Samples: 15}},
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

// The incremental Withdraw path is on the same budget: the migration
// cycle — withdraw a job, inject a new one — re-keys the slots holding
// each (REF: the owner's 2^(k-1) masks) with in-place stores and
// allocates nothing. Each cycle withdraws the pending job the previous
// one injected, so the release lists keep their length; the withdrawn
// lists only grow, and a warm-up gives them room first.
func TestWithdrawReinjectAllocFree(t *testing.T) {
	const k, jobsPerOrg, warmup, runs = 8, 6, 300, 100
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
	for _, alg := range []StepperAlgorithm{
		RefAlgorithm{},
		RandAlgorithm{Samples: 15},
		NbsAlgorithm{},
	} {
		t.Run(alg.Name(), func(t *testing.T) {
			in, err := model.NewInstance(orgs, append([]model.Job(nil), jobs...))
			if err != nil {
				t.Fatal(err)
			}
			s := alg.NewStepper(in, 1)
			for s.StepNext(0) { // dispatch the release instant; queues stay deep
			}
			// The new jobs, appended up front: one pending release each.
			first := len(in.Jobs)
			for i := 0; i <= warmup+runs+1; i++ {
				in.Jobs = append(in.Jobs, model.Job{ID: first + i, Org: i % k, Release: 1 << 20, Size: 7})
			}
			next := []int{first}
			if err := s.Inject(next); err != nil {
				t.Fatal(err)
			}
			cycle := func() {
				if err := s.Withdraw(next[0]); err != nil {
					t.Fatal(err)
				}
				next[0]++
				if err := s.Inject(next); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < warmup; i++ {
				cycle()
			}
			if avg := testing.AllocsPerRun(runs, cycle); avg != 0 {
				t.Errorf("Withdraw + Inject allocates %.2f times per cycle, budget is 0", avg)
			}
		})
	}
}

// A hypothetical schedule's state is what a future decision reads —
// waiting, running and pending jobs and two integers per organization —
// so neither its serialized size nor its in-memory lists grow with the
// number of jobs it has finished: the same arrival rate run ten times
// as long, then drained, leaves the same few hundred bytes per slot
// (the accounts gain digits), no log, a cursor per organization, and
// shared per-organization queues no longer than they were after 200.
func TestHypotheticalStateIsFlat(t *testing.T) {
	const k = 5
	steady := func(horizon model.Time) *model.Instance {
		orgs := make([]model.Org, k)
		for i := range orgs {
			orgs[i] = model.Org{Name: string(rune('A' + i)), Machines: 1}
		}
		var jobs []model.Job
		for at := model.Time(0); at < horizon; at += 2 {
			jobs = append(jobs, model.Job{Org: int(at/2) % k, Release: at, Size: 1 + (at/2)%7})
		}
		return model.MustNewInstance(orgs, jobs)
	}
	// measure drains a run and returns the summed JSON size of the
	// hypothetical schedules' states and the longest in-memory list among
	// their logs and cursor arrays and the shared queues.
	measure := func(alg StepperAlgorithm, horizon model.Time) (size, longest int) {
		in := steady(horizon)
		st := alg.NewStepper(in, 3)
		res := runStepper(st, horizon+model.Time(8*len(in.Jobs)))
		if len(res.Starts) != len(in.Jobs) {
			t.Fatalf("%s: %d of %d jobs started", alg.Name(), len(res.Starts), len(in.Jobs))
		}
		s := setOf(st)
		// Len reads an unexported field's length without its contents.
		for _, c := range s.slots[:len(s.slots)-1] {
			data, err := json.Marshal(c.CaptureState())
			if err != nil {
				t.Fatal(err)
			}
			size += len(data)
			for _, list := range []string{"starts", "cursor"} {
				longest = max(longest, reflect.ValueOf(c).Elem().FieldByName(list).Len())
			}
		}
		lists := reflect.ValueOf(s.q).Elem().FieldByName("lists")
		if lists.Len() != k {
			t.Fatalf("%s: %d shared queues for %d organizations", alg.Name(), lists.Len(), k)
		}
		for u := range k {
			longest = max(longest, lists.Index(u).Len())
		}
		return size, longest
	}
	for _, alg := range []StepperAlgorithm{RefAlgorithm{}, RandAlgorithm{Samples: 12}, NbsAlgorithm{}} {
		size1, _ := measure(alg, 400)
		size10, longest := measure(alg, 4000)
		if size10 > size1+size1/4 {
			t.Errorf("%s: hypothetical states serialize to %d B after 200 jobs and %d B after 2000", alg.Name(), size1, size10)
		}
		if longest > 128 {
			t.Errorf("%s: a drained hypothetical schedule or shared queue still holds a %d-entry list after 2000 jobs", alg.Name(), longest)
		}
	}
}
