package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// diffFamilies lists one algorithm per stepper family (RAND twice, for
// both samplers; REF again under the rotation ablation, whose Selects
// book adjustments an uncontested dispatch no longer asks for) — the
// rows of every touched-set-vs-reference differential.
func diffFamilies() []StepperAlgorithm {
	return []StepperAlgorithm{
		RefAlgorithm{},
		RandAlgorithm{Samples: 12},
		RandAlgorithm{Samples: 12, Opts: RandOptions{Stratified: true}},
		NbsAlgorithm{},
		FromPolicy("RoundRobin", func() sim.Policy { return baseline.NewRoundRobin() }),
		RefAlgorithm{Opts: RefOptions{Rotate: true}},
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

// checkKeysMatchRebuild verifies the live keys and slot bitsets against
// the keying rule rekeyAll implements — the whole invariant of the
// touched-set mode. A slot with a job waiting has no free machine, is
// keyed at its next completion and is closed to releases. A slot with
// nothing waiting is dormant (keyed sim.MaxTime, open to its coalition's
// releases, its next completion possibly already come) or, after a
// withdrawal emptied it, still keyed as if a job waited: a key may be
// early, never late. A slot is in the set's free flow exactly when it is
// in free flow, keyed sim.MaxTime and closed to releases. The keyed bits
// are the slots whose key is not sim.MaxTime, organization u's
// membership bits the slots whose coalition has u, and no bit past the
// last slot is set.
func checkKeysMatchRebuild(t *testing.T, s *schedSet) {
	t.Helper()
	if s.scan {
		t.Fatal("key check on a reference-mode set")
	}
	n := len(s.slots)
	words, k := (n+63)/64, len(s.inst.Orgs)
	if len(s.keys) != n || len(s.keyed) != words || len(s.open) != words || len(s.flow) != words || len(s.member) != k*words {
		t.Fatalf("%d keys and bitsets of %d, %d, %d and %d words for %d slots and %d organizations", len(s.keys), len(s.keyed), len(s.open), len(s.flow), len(s.member), n, k)
	}
	// want is the bitsets rebuilt slot by slot: keyed from the keys, open
	// and free flow as the set holds them, membership from the coalitions.
	want := make([]uint64, (3+k)*words)
	for i, c := range s.slots {
		for b, on := range []bool{s.keys[i] != sim.MaxTime, hasBit(s.open, i), hasBit(s.flow, i)} {
			if on {
				want[b*words+i/64] |= 1 << (i % 64)
			}
		}
		for u := 0; u < k; u++ {
			if c.Coalition().Has(u) {
				want[(3+u)*words+i/64] |= 1 << (i % 64)
			}
		}
	}
	if got := slices.Concat(s.keyed, s.open, s.flow, s.member); !slices.Equal(got, want) {
		t.Fatalf("keyed, open, free-flow and membership bitsets\n%x\nrebuilt slot by slot:\n%x", got, want)
	}
	for slot, c := range s.slots {
		open, flow := hasBit(s.open, slot), hasBit(s.flow, slot)
		if flow != c.Flowing() || flow && (s.keys[slot] != sim.MaxTime || open) {
			t.Fatalf("slot %d (in free flow: %v) keyed %d, open %v, in the set's free flow %v", slot, c.Flowing(), s.keys[slot], open, flow)
		}
		if flow {
			continue
		}
		jobs, _ := c.Waiting()
		keyed := s.keys[slot] == c.NextCompletion() && !open
		dormant := s.keys[slot] == sim.MaxTime && open
		if jobs > 0 && (!keyed || c.FreeMachines() > 0) || jobs == 0 && !keyed && !dormant {
			t.Fatalf("slot %d keyed %d and open %v, with %d jobs waiting, %d machines free and its next completion at %d",
				slot, s.keys[slot], open, jobs, c.FreeMachines(), c.NextCompletion())
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
				// Drained, the default mode may still hold completions it
				// folds instead of stepping to; it reports what comes after
				// them, as the reference mode does, before FinishAt and after.
				if h, s := heap.NextEventTime(), scan.NextEventTime(); h != s {
					t.Fatalf("%s seed %d phase %d: next event before FinishAt heap=%d scan=%d", alg.Name(), seed, phase, h, s)
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

// selectCount is what countingPolicy observes across a set's slots.
type selectCount struct{ selects, contested int }

// countingPolicy forwards to a policy and counts its Select calls and
// contested dispatches: the first Select a slot makes at an instant
// opens a dispatch, contested when two or more organizations wait at
// that moment — recounted from the view, not asked of the cluster. An
// uncontested dispatch of the default mode asks no Select at all.
type countingPolicy struct {
	sim.Policy
	view  *sim.View
	at    model.Time
	count *selectCount
}

func (p *countingPolicy) Attach(v *sim.View, rng *rand.Rand) {
	p.view, p.at = v, -1
	p.Policy.Attach(v, rng)
}

func (p *countingPolicy) Select(t model.Time, m int) int {
	p.count.selects++
	if t != p.at {
		p.at = t
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

// countingOrderer is a countingPolicy over a policy that orders the
// free machines, which it still does.
type countingOrderer struct{ *countingPolicy }

func (p countingOrderer) OrderMachines(t model.Time, free []int) {
	p.Policy.(sim.MachineOrderer).OrderMachines(t, free)
}

// counted wraps a slot's policy in a countingPolicy, an orderer's in a
// countingOrderer.
func counted(p sim.Policy, count *selectCount) sim.Policy {
	c := &countingPolicy{Policy: p, count: count}
	if _, ok := p.(sim.MachineOrderer); ok {
		return countingOrderer{c}
	}
	return c
}

// densityOrgs and densityRounds shape the stream of densityStream.
const densityOrgs, densityRounds = 8, 60

// densityStream returns a stream shaped like the shapley-k8 benchmark
// workload — 8 organizations on 16 Zipf-split machines, 40 jobs of size
// 1..30 per 100 ticks for 60 rounds, organizations drawn with a tilt
// toward low indices — and each organization's release instants in
// ascending order.
func densityStream() (*model.Instance, [][]model.Time) {
	const machines, perRound = 16, 40
	r := rand.New(rand.NewSource(7000))
	orgs := make([]model.Org, densityOrgs)
	for i, m := range stats.ZipfSplit(machines, densityOrgs, 1) {
		orgs[i] = model.Org{Name: string(rune('A' + i)), Machines: m}
	}
	var jobs []model.Job
	releases := make([][]model.Time, densityOrgs)
	for round := 0; round < densityRounds; round++ {
		for j := 0; j < perRound; j++ {
			job := model.Job{
				Org:     min(r.Intn(densityOrgs), r.Intn(densityOrgs)),
				Release: model.Time(100*round + r.Intn(100)),
				Size:    model.Time(1 + r.Intn(30)),
			}
			jobs = append(jobs, job)
			releases[job.Org] = append(releases[job.Org], job.Release)
		}
	}
	for _, rs := range releases {
		slices.Sort(rs)
	}
	return model.MustNewInstance(orgs, jobs), releases
}

// work is what one schedule set did over the density stream, counted
// from outside the set. Starts and completions are recounted from each
// slot's view (released jobs of its members minus those waiting, minus
// those running), not asked of the set.
type work struct {
	steps, touched int
	// examined counts the slot states the default mode's selection reads
	// to find a step's touched set, overflowChecks the slots in free flow
	// among them whose members' load it sums (a release of a member may
	// overflow them). The reference mode selects nothing.
	examined, overflowChecks int
	// byCompletion, byRelease and byOverflow split the default mode's
	// touches by cause; folded counts the completions processed without
	// a touch of their own. The reference mode touches every slot and
	// folds nothing.
	byCompletion, byRelease, byOverflow, folded int
	dispatches, contested, retargets            int
	starts, selects, completed, allocs          int
	// hypothetical counts the dispatches of hypothetical schedules
	// (every slot but the decision schedule), eager those of them a touch
	// made — the rest free flow made, in the release-start ledger — and
	// materialized the slots that left free flow.
	hypothetical, eager, materialized int
	perInstant                        map[model.Time]int // dispatching slots per instant
	// ckptBytes is checkpointBytes of the same sets.
	ckptBytes int
}

// line is w as a ledger line of exact integers, the form work.golden
// keeps.
func (w *work) line(label string, scan bool) string {
	split := ""
	if !scan {
		split = fmt.Sprintf(" by_completion=%d by_release=%d by_overflow=%d folded=%d", w.byCompletion, w.byRelease, w.byOverflow, w.folded)
	}
	return fmt.Sprintf("%s steps=%d touched=%d examined=%d overflow_checks=%d%s dispatches=%d eager_dispatches=%d materialized=%d contested=%d retargets=%d starts=%d skipped_selects=%d allocs_per_step=%d ckpt_bytes=%d",
		label, w.steps, w.touched, w.examined, w.overflowChecks, split, w.dispatches, w.eager, w.materialized, w.contested, w.retargets, w.starts, w.starts-w.selects, w.allocs, w.ckptBytes)
}

// measureWork steps a set build returns over the density stream to its
// horizon, its slots rebuilt on counting policies and its plug wrapped
// in a countingPlug, and counts the work. allocs is
// testing.AllocsPerRun of one step on a second set as build returns it,
// mid-stream.
func measureWork(t *testing.T, in *model.Instance, releases [][]model.Time, build func(*model.Instance) *schedSet) *work {
	t.Helper()
	const horizon = model.Time(100 * densityRounds)
	releasing := map[model.Time]model.Coalition{}
	for _, j := range in.Jobs {
		releasing[j.Release] = releasing[j.Release].With(j.Org)
	}
	// counts returns how many jobs a slot has started and completed, with
	// the queues released up to t.
	counts := func(c *sim.Cluster, t model.Time) (started, completed int) {
		v := c.View()
		running := 0
		for u := range releases {
			if c.Coalition().Has(u) {
				released, _ := slices.BinarySearch(releases[u], t+1)
				started += released - v.Waiting(u)
				running += v.Running(u)
			}
		}
		return started, started - running
	}
	// overloaded returns the organizations whose jobs that would run at t
	// had each started at its release, those released at t included,
	// outnumber their machines: a release-start ledger's overloaded
	// organizations (sim.Queues.Overloaded) while it holds t's releases
	// apart, recounted from the stream.
	overloaded := func(t model.Time) model.Coalition {
		load := make([]int, len(in.Orgs))
		for _, j := range in.Jobs {
			if j.Release <= t && t < j.Release+j.Size {
				load[j.Org]++
			}
		}
		var over model.Coalition
		for u, o := range in.Orgs {
			if load[u] > o.Machines {
				over = over.With(u)
			}
		}
		return over
	}
	s := build(in)
	plug := &countingPlug{plug: s.plug}
	s.plug = plug
	var count selectCount
	s.q = sim.NewQueues(in)
	last := len(s.slots) - 1
	for i, c := range s.slots {
		var rng *rand.Rand
		if i == last && s.src != nil {
			rng = rand.New(s.src) // the decision schedule's stream, unstepped
		}
		s.slots[i] = s.q.NewCluster(c.Coalition(), counted(c.Policy(), &count), rng)
		if i < last {
			s.slots[i].DiscardStarts()
		}
	}
	s.rekeyAll()
	w := &work{perInstant: map[model.Time]int{}}
	started := make([]int, len(s.slots))
	touchedNow := make([]bool, len(s.slots))
	var onTime int
	var keyed, before, flowing []int
	for at := s.instant(); at <= horizon; at = s.instant() {
		keyed, before, flowing = keyed[:0], before[:0], flowing[:0]
		if !s.scan {
			// The selection reads the slots with a key and those holding a
			// releasing organization that are open or in free flow with an
			// overloaded member, and sums the load of the latter.
			over := overloaded(at)
			for i, key := range s.keys {
				coal := s.slots[i].Coalition()
				open := hasBit(s.open, i) && coal&releasing[at] != 0
				check := hasBit(s.flow, i) && coal&releasing[at] != 0 && coal&over != 0
				if key != sim.MaxTime || open || check {
					w.examined++
				}
				if check {
					w.overflowChecks++
				}
				switch {
				case key == at:
					_, done := counts(s.slots[i], at-1)
					keyed, before = append(keyed, i), append(before, done)
				case open:
					w.byRelease++
				case hasBit(s.flow, i):
					flowing = append(flowing, i)
				}
			}
		}
		if !s.StepNext(horizon) {
			t.Fatalf("no step at instant %d", at)
		}
		w.steps++
		clear(touchedNow)
		if s.scan {
			w.touched += len(s.slots)
		} else {
			for _, i := range s.touched {
				touchedNow[i] = true
			}
			for _, i := range flowing {
				if touchedNow[i] {
					w.byOverflow++
				}
				if !s.slots[i].Flowing() {
					w.materialized++
				}
			}
			w.touched += len(s.touched)
			w.byCompletion += len(keyed)
			for j, i := range keyed {
				_, done := counts(s.slots[i], at)
				onTime += done - before[j]
			}
		}
		for i, c := range s.slots {
			if st, _ := counts(c, at); st > started[i] {
				w.perInstant[at]++
				w.starts += st - started[i]
				started[i] = st
				if i < last {
					w.hypothetical++
					if s.scan || touchedNow[i] {
						w.eager++
					}
				}
			}
		}
	}
	s.FinishAt(horizon)
	for _, c := range s.slots {
		_, done := counts(c, horizon)
		w.completed += done
	}
	for _, d := range w.perInstant {
		w.dispatches += d
	}
	w.contested, w.retargets, w.selects = count.contested, plug.retargets, count.selects
	if !s.scan {
		w.folded = w.completed - onTime
		if w.byCompletion+w.byRelease+w.byOverflow != w.touched {
			t.Errorf("%d slots touched, %d by a completion, %d by a release and %d by an overflow", w.touched, w.byCompletion, w.byRelease, w.byOverflow)
		}
		if w.byOverflow != w.materialized {
			t.Errorf("%d slots touched by an overflow, %d materialized", w.byOverflow, w.materialized)
		}
	}
	if want := map[bool]int{false: w.contested, true: w.dispatches}[s.scan]; w.retargets != want {
		t.Errorf("%d retargets, want %d (%d dispatches, %d contested)", w.retargets, want, w.dispatches, w.contested)
	}
	if s.scan && w.selects != w.starts {
		t.Errorf("reference mode: %d Selects for %d starts", w.selects, w.starts)
	}
	m := build(in)
	for m.instant() < horizon/2 {
		m.StepNext(horizon)
	}
	const runs = 100
	stepped := 0
	w.allocs = int(testing.AllocsPerRun(runs, func() {
		if m.StepNext(horizon) {
			stepped++
		}
	}))
	if stepped != runs+1 { // AllocsPerRun warms up with one call
		t.Fatalf("%d of %d measured calls stepped", stepped, runs+1)
	}
	w.ckptBytes = checkpointBytes(t, in, build)
	return w
}

// ckptRounds is how many session ages checkpointBytes captures.
const ckptRounds = 32

// captureAged returns a set build makes on the first 40·r jobs of the
// density stream in, stepped to 100·r as an engine steps, and its
// checkpoint there as JSON: a session of the age shapley-k8's census
// sees after r rounds.
func captureAged(t testing.TB, in *model.Instance, r int, build func(*model.Instance) *schedSet) (*schedSet, []byte) {
	t.Helper()
	now := model.Time(100 * r)
	s := build(model.MustNewInstance(in.Orgs, in.Jobs[:40*r]))
	for s.StepNext(now) {
	}
	s.FinishAt(now)
	cp, err := s.Capture(now)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return s, data
}

// checkpointBytes sums the JSON bytes of captureAged's checkpoints for
// r = 1..ckptRounds: what a checkpoint stores, summed over session ages.
func checkpointBytes(t testing.TB, in *model.Instance, build func(*model.Instance) *schedSet) int {
	t.Helper()
	total := 0
	for r := 1; r <= ckptRounds; r++ {
		_, data := captureAged(t, in, r, build)
		total += len(data)
	}
	return total
}

var update = flag.Bool("update", false, "rewrite testdata/work.golden")

// The work REF does per step, in both modes of the loop, RAND(N=15) and
// NBS in the default mode and DIRECTCONTR, a one-slot set, in the
// reference mode, counted on densityStream (measureWork) and held
// to testdata/work.golden (go test ./internal/core -run
// TestTouchedSetDensity -update rewrites it): a change that claims a cheaper step and leaves the file
// as it is did the same work more cheaply. Per mode:
//
//   - steps: the default mode steps only to a keyed completion or a
//     release, so it takes fewer than the reference mode, which steps to
//     every completion of every slot;
//   - touched slots, in the default mode split by what touched them: a
//     completion in a slot with a job waiting, a member's release in a
//     dormant slot, or a member's release that overflows a slot in free
//     flow and materializes it (materialized counts those, so the two
//     agree). REF's total is at most half the reference mode's 2^k−1
//     per step over the reference mode's steps;
//   - slots examined: the slot states the default mode's selection
//     reads to find the touched set — the slots with a key, and those
//     holding a releasing organization that are open, or in free flow
//     with an overloaded member — and among them the overflow checks,
//     the slots in free flow whose members' load it sums (0 in the
//     reference mode, which touches every slot);
//   - completions folded without a touch of their own: every completion
//     but those in keyed slots at their instant, the ones the
//     release-start ledger books for slots in free flow included. Both
//     modes complete the same jobs by the horizon;
//   - dispatching slots per instant, equal in both modes; among them
//     the hypothetical schedules' dispatches a touch made (eager) —
//     the rest are free flow's, booked once per job in the ledger — and
//     the contested ones, where two or more organizations wait: only
//     those refresh targets (one retarget each) and ask Select in the
//     default mode; the reference mode retargets at every dispatch and
//     asks Select for every start;
//   - allocations per step, mid-stream;
//   - checkpoint bytes, summed over 32 session ages (checkpointBytes):
//     equal in both modes, since a capture does not depend on the mode.
//
// Most of REF's dispatches are uncontested; the test fails if fewer
// than 80 % are, since skipping their refresh and their Selects is what
// the default mode saves. Free flow is the premise of the default
// mode's cost (EXPERIMENTS.md §3): the test fails if touches make more
// than a tenth of REF's or RAND's hypothetical dispatches.
func TestTouchedSetDensity(t *testing.T) {
	in, releases := densityStream()
	slots := 1<<densityOrgs - 1
	ledger := []string{
		fmt.Sprintf("# Work over densityStream: %d organizations, %d jobs, %d rounds of 100 ticks; REF has %d slots.", densityOrgs, len(in.Jobs), densityRounds, slots),
		"# Counts are totals over the stream; allocs_per_step is testing.AllocsPerRun of one step, mid-stream.",
		fmt.Sprintf("# ckpt_bytes sums the JSON checkpoints of sets on the first 40·r jobs stepped to 100·r, r = 1..%d.", ckptRounds),
	}
	ref := map[RefDriver]*work{}
	for _, driver := range []RefDriver{DriverHeap, DriverScan} {
		w := measureWork(t, in, releases, func(in *model.Instance) *schedSet { return NewRef(in, RefOptions{Driver: driver}).set() })
		ref[driver] = w
		ledger = append(ledger, w.line("REF/"+driver.String(), driver == DriverScan))
		if uncontested := 1 - float64(w.contested)/float64(w.dispatches); uncontested < 0.8 {
			t.Errorf("%s mode: %.1f %% of dispatches uncontested, below 80 %%: the work the default mode skips is no longer the common case", driver, 100*uncontested)
		}
	}
	rnd := measureWork(t, in, releases, func(in *model.Instance) *schedSet { return NewRandSched(in, 15, 1, RandOptions{}).set() })
	ledger = append(ledger, rnd.line("RAND(N=15)/heap", false))
	nbs := measureWork(t, in, releases, func(in *model.Instance) *schedSet { return NewNbs(in).set() })
	ledger = append(ledger, nbs.line("NBS/heap", false))
	// A one-slot set runs the reference mode: it has nothing to skip.
	direct := measureWork(t, in, releases, func(in *model.Instance) *schedSet { return setOf(DirectContrAlgorithm().NewStepper(in, 1)) })
	ledger = append(ledger, direct.line("DIRECTCONTR/scan", true))
	heap, scan := ref[DriverHeap], ref[DriverScan]
	for name, w := range map[string]*work{"REF": heap, "RAND(N=15)": rnd} {
		if 10*w.eager > w.hypothetical {
			t.Errorf("%s: %d of %d hypothetical dispatches made by a touch: free flow takes less than 90 %% of them", name, w.eager, w.hypothetical)
		}
	}
	if !maps.Equal(heap.perInstant, scan.perInstant) {
		t.Errorf("dispatching slots per instant differ between the modes:\n%v\n%v", heap.perInstant, scan.perInstant)
	}
	if heap.ckptBytes != scan.ckptBytes {
		t.Errorf("REF checkpoints %d bytes in the default mode, %d in the reference mode: a capture depends on the mode", heap.ckptBytes, scan.ckptBytes)
	}
	if heap.completed != scan.completed {
		t.Errorf("%d jobs completed by the horizon in the default mode, %d in the reference mode", heap.completed, scan.completed)
	}
	if heap.steps >= scan.steps {
		t.Errorf("the default mode took %d steps, the reference mode %d", heap.steps, scan.steps)
	}
	if 2*heap.touched > slots*scan.steps {
		t.Errorf("the default mode touched %d slots, more than half the reference mode's %d slot-steps", heap.touched, slots*scan.steps)
	}
	got := strings.Join(ledger, "\n") + "\n"
	t.Log("\n" + got)
	const golden = "testdata/work.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the work ledger moved (rewrite with -update if that is meant):\ngot:\n%swant:\n%s", got, want)
	}
}

// BenchmarkScheduleSetStep is the stepping kernel TestTouchedSetDensity
// counts: REF, RAND(N=15) and NBS — a set that keeps no release-start
// ledger — in the default mode, stepped over densityStream to its
// horizon. It reports ns per 100-tick round; building the stepper is
// not timed.
func BenchmarkScheduleSetStep(b *testing.B) {
	in, _ := densityStream()
	const horizon = model.Time(100 * densityRounds)
	for _, bc := range []struct {
		name  string
		build func() Stepper
	}{
		{"ref", func() Stepper { return NewRef(in, RefOptions{}) }},
		{"rand", func() Stepper { return NewRandSched(in, 15, 1, RandOptions{}) }},
		{"nbs", func() Stepper { return NewNbs(in) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := bc.build()
				b.StartTimer()
				for st.StepNext(horizon) {
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*densityRounds), "ns/round")
		})
	}
}

// BenchmarkCheckpointRoundTrip is what a checkpoint costs the layers
// that store and serve it: REF and RAND(N=15) on the first 640 jobs of
// densityStream stepped to 1 600 (captureAged at r = 16), captured,
// marshaled, unmarshaled and restored per op. It reports the document's
// bytes.
func BenchmarkCheckpointRoundTrip(b *testing.B) {
	in, _ := densityStream()
	for _, bc := range []struct {
		name string
		alg  StepperAlgorithm
	}{
		{"ref", RefAlgorithm{}},
		{"rand", RandAlgorithm{Samples: 15}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, data := captureAged(b, in, 16, func(in *model.Instance) *schedSet { return setOf(bc.alg.NewStepper(in, 1)) })
			for i := 0; i < b.N; i++ {
				cp, err := s.Capture(s.now)
				if err != nil {
					b.Fatal(err)
				}
				if data, err = json.Marshal(cp); err != nil {
					b.Fatal(err)
				}
				back := new(Checkpoint)
				if err := json.Unmarshal(data, back); err != nil {
					b.Fatal(err)
				}
				if _, err := bc.alg.RestoreStepper(back); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(data)), "B/doc")
		})
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

// steadyStepper builds a stepper on a saturated workload, primed past
// the release instant: A and B queue 60 jobs each on two machines
// apiece, so every completion in a slot holding either starts a queued
// job, and the grand coalition's dispatches are contested. C's one job
// starts at its release in C's singleton, which then waits for nothing:
// in free flow (REF, RAND) its completion is folded in the release-start
// ledger by the first step past it; dormant (NBS, which keeps no ledger)
// by the first contested retarget that reads its value past it. C's job
// runs at speed 1 for its size, so the completion is due at that
// instant.
func steadyStepper(t *testing.T, alg StepperAlgorithm) Stepper {
	t.Helper()
	const jobsPerOrg = 60
	orgs := []model.Org{{Name: "A", Machines: 2}, {Name: "B", Machines: 2}, {Name: "C", Machines: 1}}
	var jobs []model.Job
	for o := 0; o < 2; o++ {
		for j := 0; j < jobsPerOrg; j++ {
			jobs = append(jobs, model.Job{Org: o, Release: 0, Size: model.Time(5 + 4*j + o)})
		}
	}
	jobs = append(jobs, model.Job{Org: 2, Release: 0, Size: steadyFold})
	in, err := model.NewInstance(orgs, jobs)
	if err != nil {
		t.Fatal(err)
	}
	s := alg.NewStepper(in, 1)
	for s.StepNext(0) {
	}
	return s
}

// steadyFold is the instant C's job completes in steadyStepper.
const steadyFold = 30

// Steady-state stepping is zero-alloc by budget for every stepper
// family: completions that start queued jobs, accounting, re-keys,
// contested φ fills that read a slot in free flow or fold a dormant
// one, a fold of the release-start ledger, and uncontested starts must
// all run out of the steppers' preallocated scratch (the daemon's own
// configuration, on touched sets of 16 and more, is held to it in
// daemon's TestSessionAlgorithmsStepAllocFree). AllocsPerRun truncates
// its average, so every measured call has to process a real event: the
// test checks that events were still left afterwards, and that C's job
// in C's singleton, where a set has one, was folded during the
// measurement and not before.
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
			var dormant *sim.Cluster
			for _, c := range setOf(s).slots {
				if c.Coalition() == model.Singleton(2) {
					dormant = c
				}
			}
			if dormant != nil && (dormant.View().Running(2) != 1 || dormant.NextCompletionAfter(0) != steadyFold) {
				t.Fatalf("C's singleton runs %d jobs and completes at %d before the measurement, want one, at %d",
					dormant.View().Running(2), dormant.NextCompletionAfter(0), steadyFold)
			}
			if avg := testing.AllocsPerRun(100, func() { s.StepNext(horizon) }); avg != 0 {
				t.Errorf("steady-state StepNext allocates %.2f times per run, budget is 0", avg)
			}
			if !s.StepNext(horizon) {
				t.Fatal("events drained during measurement")
			}
			if dormant != nil && dormant.View().Running(2) != 0 {
				t.Errorf("C's singleton still runs C's job: nothing folded it")
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

// Free flow costs nothing where it cannot apply or pay: a one-slot set
// has no hypothetical schedule, a set on related machines has no
// schedule a release-start ledger describes, NBS has one hypothetical
// schedule per organization, whose jobs the ledger would book as often,
// and the reference mode is the eager oracle; none of them builds a
// ledger, and none of their slots ever enters free flow. On identical
// machines the default mode of REF and RAND keeps one, and its slots
// flow.
func TestReleaseStartLedgerOnlyWhereFreeFlowApplies(t *testing.T) {
	const horizon = model.Time(400)
	instance := func(speeds []int) *model.Instance {
		orgs := []model.Org{{Name: "A", Machines: 2, Speeds: speeds}, {Name: "B", Machines: 1}, {Name: "C", Machines: 2}}
		r := rand.New(rand.NewSource(11))
		var jobs []model.Job
		for i := 0; i < 60; i++ {
			jobs = append(jobs, model.Job{Org: r.Intn(len(orgs)), Release: model.Time(r.Intn(300)), Size: model.Time(1 + r.Intn(20))})
		}
		return model.MustNewInstance(orgs, jobs)
	}
	for _, tc := range []struct {
		name   string
		alg    StepperAlgorithm
		speeds []int
		scan   bool
		ledger bool
	}{
		{"REF", RefAlgorithm{}, nil, false, true},
		{"RAND", RandAlgorithm{Samples: 6}, nil, false, true},
		{"NBS", NbsAlgorithm{}, nil, false, false},
		{"REF/scan", RefAlgorithm{}, nil, true, false},
		{"DIRECTCONTR", DirectContrAlgorithm(), nil, false, false},
		{"FCFS", FromPolicy("FCFS", func() sim.Policy { return baseline.NewFCFS() }), nil, false, false},
		{"REF/related", RefAlgorithm{}, []int{1, 2}, false, false},
		{"RAND/related", RandAlgorithm{Samples: 6}, []int{1, 2}, false, false},
		{"NBS/related", NbsAlgorithm{}, []int{1, 2}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.alg.NewStepper(instance(tc.speeds), 1)
			s := setOf(st)
			if tc.scan {
				s.scan = true
				s.rekeyAll()
			}
			flowed := false
			check := func() {
				t.Helper()
				if kept := !reflect.ValueOf(s.q).Elem().FieldByName("starts").IsNil(); kept != tc.ledger {
					t.Fatalf("release-start ledger kept: %v, want %v", kept, tc.ledger)
				}
				for _, c := range s.slots {
					flowed = flowed || c.Flowing()
				}
			}
			check()
			for st.StepNext(horizon) {
				check()
			}
			st.FinishAt(horizon)
			check()
			if flowed != tc.ledger {
				t.Errorf("a slot in free flow: %v, want %v", flowed, tc.ledger)
			}
		})
	}
}
