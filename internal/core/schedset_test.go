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

// diffFamilies lists every stepper configuration, RAND with the given
// sample count — the rows of every differential against the oracle: REF
// (again under the rotation ablation, whose Selects book adjustments an
// uncontested dispatch no longer asks for), RAND under both samplers,
// NBS, and every FromPolicy plug: FCFS, the three fair-share policies,
// RoundRobin (stateful: every start asks it) and DIRECTCONTR (it orders
// the free machines from the RNG).
func diffFamilies(samples int) []StepperAlgorithm {
	algs := []StepperAlgorithm{
		RefAlgorithm{},
		RefAlgorithm{Opts: RefOptions{Rotate: true}},
		RandAlgorithm{Samples: samples},
		RandAlgorithm{Samples: samples, Opts: RandOptions{Stratified: true}},
		NbsAlgorithm{},
	}
	for _, name := range []string{"fcfs", "fairshare", "utfairshare", "currfairshare", "roundrobin", "directcontr"} {
		alg, err := AlgorithmByName(name, samples, RefOptions{}, RandOptions{})
		if err != nil {
			panic(err)
		}
		algs = append(algs, alg)
	}
	return algs
}

// setOf returns the schedule set under a stepper.
func setOf(st Stepper) *schedSet { return st.(interface{ set() *schedSet }).set() }

// ledgerRunning sets running[u] to how many of u's jobs the
// release-start ledger of q runs, as of its last fold, for every
// organization u.
func ledgerRunning(q *sim.Queues, running []int) {
	counts := reflect.ValueOf(q).Elem().FieldByName("starts").Elem().FieldByName("running")
	for u := range running {
		running[u] = int(counts.Index(u).Int())
	}
}

// flowing reports whether a slot is in free flow. No program asks a
// cluster that — its set keeps the answer as a bit — so the tests read
// its unexported state, as TestHypotheticalStateIsFlat reads its lists.
func flowing(c *sim.Cluster) bool { return reflect.ValueOf(c).Elem().FieldByName("flow").Bool() }

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
		if flow != flowing(c) || flow && (s.keys[slot] != sim.MaxTime || open) {
			t.Fatalf("slot %d (in free flow: %v) keyed %d, open %v, in the set's free flow %v", slot, flowing(c), s.keys[slot], open, flow)
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
// run must end byte-identical to the oracle under the same mutation
// sequence (the executable spec: the oracle has no keys to corrupt) —
// for every stepper configuration, since the keys belong to the shared
// core. A withdrawn job comes back the way migration brings
// work in: as a new job, released at the mutation instant.
//
// Mutations happen at synchronized instants — drain both runs to a
// common time T, FinishAt(T), then withdraw/inject on both. The
// touched-set loop deliberately lets untouched clusters' clocks lag
// mid-step, so only at quiesced instants do the two runs stand at the
// same clock to mutate.
func TestIncrementalWithdrawHeapDifferential(t *testing.T) {
	for _, alg := range diffFamilies(12) {
		for seed := int64(0); seed < 25; seed++ {
			r := rand.New(rand.NewSource(5000 + seed))
			k := 2 + r.Intn(5)
			in := diffInstance(r, k)
			horizon := in.Horizon() + 2
			heap := alg.NewStepper(in, seed)
			scan := oracleOf(alg, in, seed)
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
				// Drained, the touched-set loop may still hold completions it
				// folds instead of stepping to; it reports what comes after
				// them, as the oracle does, before FinishAt and after.
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
// uncontested dispatch of the touched-set loop asks no Select at all
// (but a policy plug's does). It keeps the view its cluster attaches,
// for measureWork's counts.
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
// countingOrderer, and returns the wrapper and what to install.
func counted(p sim.Policy, count *selectCount) (*countingPolicy, sim.Policy) {
	c := &countingPolicy{Policy: p, count: count}
	if _, ok := p.(sim.MachineOrderer); ok {
		return c, countingOrderer{c}
	}
	return c, c
}

// densityOrgs and densityRounds shape the stream of densityStream,
// wideOrgs and wideRounds the wide stream of the work ledger's REF/k12
// line.
const (
	densityOrgs, densityRounds = 8, 60
	wideOrgs, wideRounds       = 12, 20
)

// densityStream returns a stream shaped like the shapley-k8 benchmark
// workload — 8 organizations on 16 Zipf-split machines, 40 jobs of size
// 1..30 per 100 ticks for 60 rounds, organizations drawn with a tilt
// toward low indices — and each organization's release instants in
// ascending order.
func densityStream() (*model.Instance, [][]model.Time) {
	return wideStream(densityOrgs, densityRounds)
}

// wideStream is densityStream widened to k organizations: 2k
// Zipf-split machines and 5k jobs per round of 100 ticks, for rounds
// rounds.
func wideStream(k, rounds int) (*model.Instance, [][]model.Time) {
	r := rand.New(rand.NewSource(7000))
	orgs := make([]model.Org, k)
	for i, m := range stats.ZipfSplit(2*k, k, 1) {
		orgs[i] = model.Org{Name: string(rune('A' + i)), Machines: m}
	}
	var jobs []model.Job
	releases := make([][]model.Time, k)
	for round := 0; round < rounds; round++ {
		for j := 0; j < 5*k; j++ {
			job := model.Job{
				Org:     min(r.Intn(k), r.Intn(k)),
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
	// examined counts the slot states the touched-set loop's selection
	// reads to find a step's touched set, overflowChecks the slots in free
	// flow among them whose members' load it sums (a release of a member
	// may overflow them). The oracle selects nothing.
	examined, overflowChecks int
	// byCompletion, byRelease and byOverflow split the touched-set loop's
	// touches by cause; folded counts the completions processed without a
	// touch of their own. The oracle touches every slot and folds nothing.
	byCompletion, byRelease, byOverflow, folded int
	dispatches, contested, retargets            int
	starts, selects, completed, allocs          int
	// hypothetical counts the dispatches of hypothetical schedules
	// (every slot but the decision schedule), eager those of them a touch
	// made — the rest free flow made, in the release-start ledger — and
	// materialized the slots that left free flow.
	hypothetical, eager, materialized int
	perInstant                        map[model.Time]int // dispatching slots per instant
	// ckpt is the census of the same sets' aged captures.
	ckpt census
}

// line is w as a ledger line of exact integers, the form work.golden
// keeps; the oracle's has no touch split.
func (w *work) line(label string, ref bool) string {
	split := ""
	if !ref {
		split = fmt.Sprintf(" by_completion=%d by_release=%d by_overflow=%d folded=%d", w.byCompletion, w.byRelease, w.byOverflow, w.folded)
	}
	return fmt.Sprintf("%s steps=%d touched=%d examined=%d overflow_checks=%d%s dispatches=%d eager_dispatches=%d materialized=%d contested=%d retargets=%d starts=%d skipped_selects=%d allocs_per_step=%d ckpt_bytes=%d",
		label, w.steps, w.touched, w.examined, w.overflowChecks, split, w.dispatches, w.eager, w.materialized, w.contested, w.retargets, w.starts, w.starts-w.selects, w.allocs, w.ckpt.bytes)
}

// schedules is the ledger's census columns: how the captures wrote
// their hypothetical schedules.
func (w *work) schedules() string {
	return fmt.Sprintf(" implicit=%d deviating=%d", w.ckpt.implicit, w.ckpt.deviating)
}

// stepping is a loop measureWork drives: a set's own, or the oracle.
type stepping interface {
	Stepper
	instant() model.Time
}

// measureWork steps a set build returns over a density stream of
// rounds rounds to its horizon — by the set's own loop, or by the oracle
// when ref — its slots rebuilt on counting policies and its plug wrapped
// in a countingPlug, and counts the work. allocs is testing.AllocsPerRun
// of one step on a second set as build returns it, mid-stream; ckpt the
// census of its captures at the given ages, in rounds.
func measureWork(t *testing.T, in *model.Instance, releases [][]model.Time, rounds int, ages []int, build func(*model.Instance) *schedSet, ref bool) *work {
	t.Helper()
	horizon := model.Time(100 * rounds)
	loop := func(s *schedSet) stepping {
		if ref {
			return newOracle(s)
		}
		return s
	}
	releasing := map[model.Time]model.Coalition{}
	for _, j := range in.Jobs {
		releasing[j.Release] = releasing[j.Release].With(j.Org)
	}
	s := build(in)
	plug := &countingPlug{plug: s.plug}
	s.plug = plug
	var count selectCount
	s.q = sim.NewQueues(in)
	last := len(s.slots) - 1
	views := make([]*sim.View, len(s.slots))
	for i, c := range s.slots {
		var rng *rand.Rand
		if i == last && s.src != nil {
			rng = rand.New(s.src) // the decision schedule's stream, unstepped
		}
		policy, install := counted(c.Policy(), &count)
		s.slots[i] = s.q.NewCluster(c.Coalition(), install, rng)
		views[i] = policy.view
		if i < last {
			s.slots[i].DiscardStarts()
		}
	}
	s.rekeyAll()
	l := loop(s)
	// counts returns how many jobs slot i has started and completed, with
	// the queues released up to t. Only a step or FinishAt moves the
	// ledger, and every read at one instant falls between the same two
	// of those, so its running counts are read once per instant, as the
	// released counts are.
	released, releasedBy := make([]int, len(releases)), model.Time(-1) // per organization, its jobs released by releasedBy (none by −1)
	ledger, ledgerBy := make([]int, len(releases)), model.Time(-1)     // per organization, its jobs the ledger runs at ledgerBy (unread by −1)
	counts := func(i int, t model.Time) (started, completed int) {
		if t != releasedBy {
			for u, rs := range releases {
				released[u], _ = slices.BinarySearch(rs, t+1)
			}
			releasedBy = t
		}
		v := views[i]
		running := 0
		for u := range releases {
			switch {
			case !v.Coalition().Has(u):
			case hasBit(s.flow, i):
				// In free flow every released job has started, and the
				// members' ledger jobs are what runs.
				if t != ledgerBy {
					ledgerRunning(s.q, ledger)
					ledgerBy = t
				}
				started += released[u]
				running += ledger[u]
			default:
				started += released[u] - v.Waiting(u)
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
	w := &work{perInstant: map[model.Time]int{}}
	started := make([]int, len(s.slots))
	touchedNow := make([]bool, len(s.slots))
	var onTime int
	var keyed, before, inFlow []int
	for at := l.instant(); at <= horizon; at = l.instant() {
		keyed, before, inFlow = keyed[:0], before[:0], inFlow[:0]
		if !ref {
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
					_, done := counts(i, at-1)
					keyed, before = append(keyed, i), append(before, done)
				case open:
					w.byRelease++
				case hasBit(s.flow, i):
					inFlow = append(inFlow, i)
				}
			}
		}
		if !l.StepNext(horizon) {
			t.Fatalf("no step at instant %d", at)
		}
		w.steps++
		clear(touchedNow)
		if ref {
			w.touched += len(s.slots)
		} else {
			for i := range touchedNow {
				if touchedNow[i] = hasBit(s.touched, i); touchedNow[i] {
					w.touched++
				}
			}
			for _, i := range inFlow {
				if touchedNow[i] {
					w.byOverflow++
				}
				if !hasBit(s.flow, i) { // the set's free flow is its slots' (checkKeysMatchRebuild)
					w.materialized++
				}
			}
			w.byCompletion += len(keyed)
			for j, i := range keyed {
				_, done := counts(i, at)
				onTime += done - before[j]
			}
		}
		for i := range s.slots {
			if st, _ := counts(i, at); st > started[i] {
				w.perInstant[at]++
				w.starts += st - started[i]
				started[i] = st
				if i < last {
					w.hypothetical++
					if ref || touchedNow[i] {
						w.eager++
					}
				}
			}
		}
	}
	l.FinishAt(horizon)
	ledgerBy = -1
	for i := range s.slots {
		_, done := counts(i, horizon)
		w.completed += done
	}
	for _, d := range w.perInstant {
		w.dispatches += d
	}
	w.contested, w.retargets, w.selects = count.contested, plug.retargets, count.selects
	if !ref {
		w.folded = w.completed - onTime
		if w.byCompletion+w.byRelease+w.byOverflow != w.touched {
			t.Errorf("%d slots touched, %d by a completion, %d by a release and %d by an overflow", w.touched, w.byCompletion, w.byRelease, w.byOverflow)
		}
		if w.byOverflow != w.materialized {
			t.Errorf("%d slots touched by an overflow, %d materialized", w.byOverflow, w.materialized)
		}
	}
	if want := map[bool]int{false: w.contested, true: w.dispatches}[ref]; w.retargets != want {
		t.Errorf("%d retargets, want %d (%d dispatches, %d contested)", w.retargets, want, w.dispatches, w.contested)
	}
	if (ref || s.ask) && w.selects != w.starts {
		t.Errorf("%d Selects for %d starts: the oracle, and a policy plug's set, ask for every start", w.selects, w.starts)
	}
	m := loop(build(in))
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
	w.ckpt = captureCensus(t, in, ages, func(in *model.Instance) Stepper { return loop(build(in)) })
	return w
}

// densityAges are the session ages, in rounds, the work ledger's
// densityStream lines capture at, wideAges the REF/k12 line's: five, to
// its horizon.
var densityAges, wideAges = agesUpTo(32, 1), agesUpTo(wideRounds, 4)

// agesUpTo returns the ages step, 2·step, … up to last.
func agesUpTo(last, step int) []int {
	var ages []int
	for r := step; r <= last; r += step {
		ages = append(ages, r)
	}
	return ages
}

// captureAged returns a stepper build makes on the first r rounds of
// the density stream in (5k·r jobs over k organizations), stepped to
// 100·r as an engine steps, and its checkpoint there, also as JSON: a
// session of the age shapley-k8's census sees after r rounds.
func captureAged(t testing.TB, in *model.Instance, r int, build func(*model.Instance) Stepper) (Stepper, *Checkpoint, []byte) {
	t.Helper()
	now := model.Time(100 * r)
	s := build(model.MustNewInstance(in.Orgs, in.Jobs[:5*len(in.Orgs)*r]))
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
	return s, cp, data
}

// census is what captureAged's checkpoints at several ages store,
// summed over them: their JSON bytes, the hypothetical schedules written
// as their members' release-start schedule with no finished-work offset
// (implicit: the job list alone implies them), and the other
// hypothetical schedules (deviating).
type census struct {
	bytes, implicit, deviating int
}

// captureCensus takes the census of captureAged's checkpoints at the
// given ages: what a checkpoint stores, summed over session ages.
func captureCensus(t testing.TB, in *model.Instance, ages []int, build func(*model.Instance) Stepper) census {
	t.Helper()
	var c census
	for _, r := range ages {
		_, cp, data := captureAged(t, in, r, build)
		c.bytes += len(data)
		for _, cs := range cp.Clusters {
			switch {
			case cs.QueueState != nil: // the decision schedule
			case cs.AtRelease && len(cs.OrgAcct) == 0:
				c.implicit++
			default:
				c.deviating++
			}
		}
	}
	return c
}

var update = flag.Bool("update", false, "rewrite testdata/work.golden")

// The work REF does per step, in the touched-set loop and in the
// oracle, and RAND(N=15), NBS and DIRECTCONTR — a one-slot set — in the
// touched-set loop, counted on densityStream (measureWork) and held to
// testdata/work.golden (go test ./internal/core -run
// TestTouchedSetDensity -update rewrites it): a change that claims a
// cheaper step and leaves the file as it is did the same work more
// cheaply. Per line:
//
//   - steps: the touched-set loop steps only to a keyed completion or a
//     release, so it takes fewer than the oracle, which steps to every
//     completion of every slot;
//   - touched slots, in the touched-set loop split by what touched them:
//     a completion in a slot with a job waiting, a member's release in a
//     dormant slot, or a member's release that overflows a slot in free
//     flow and materializes it (materialized counts those, so the two
//     agree). REF's total is at most half the oracle's 2^k−1 per step
//     over the oracle's steps;
//   - slots examined: the slot states the touched-set loop's selection
//     reads to find the touched set — the slots with a key, and those
//     holding a releasing organization that are open, or in free flow
//     with an overloaded member — and among them the overflow checks,
//     the slots in free flow whose members' load it sums (0 in the
//     oracle, which touches every slot);
//   - completions folded without a touch of their own: every completion
//     but those in keyed slots at their instant, the ones the
//     release-start ledger books for slots in free flow included. The
//     loop and the oracle complete the same jobs by the horizon;
//   - dispatching slots per instant, equal in the loop and the oracle;
//     among them the hypothetical schedules' dispatches a touch made
//     (eager) — the rest are free flow's, booked once per job in the
//     ledger — and the contested ones, where two or more organizations
//     wait: only those refresh targets (one retarget each) and, but in a
//     policy plug's set, ask Select in the touched-set loop; the oracle
//     retargets at every dispatch and asks Select for every start;
//   - allocations per step, mid-stream;
//   - checkpoint bytes, summed over 32 session ages (captureCensus):
//     equal in the loop and the oracle, since a capture does not depend
//     on how the set was stepped; and on the REF, RAND and NBS lines the
//     hypothetical schedules those captures write as their release-start
//     schedule with no offset (implicit) and the rest (deviating), the
//     census ROADMAP item 10 starts from.
//
// REF/k12 is REF's line on densityStream widened to 12 organizations
// (wideStream), 4 095 slots, stepped to 2 000 and captured at five ages.
//
// Most of REF's dispatches are uncontested; the test fails if fewer
// than 80 % are, since skipping their refresh and their Selects is what
// the touched-set loop saves. Free flow is the premise of its cost
// (EXPERIMENTS.md §3): the test fails if touches make more than a tenth
// of REF's or RAND's hypothetical dispatches.
func TestTouchedSetDensity(t *testing.T) {
	in, releases := densityStream()
	slots := 1<<densityOrgs - 1
	ledger := []string{
		fmt.Sprintf("# Work over densityStream: %d organizations, %d jobs, %d rounds of 100 ticks; REF has %d slots.", densityOrgs, len(in.Jobs), densityRounds, slots),
		"# Counts are totals over the stream; allocs_per_step is testing.AllocsPerRun of one step, mid-stream.",
		fmt.Sprintf("# ckpt_bytes sums the JSON checkpoints of sets on the first 40·r jobs stepped to 100·r, r = 1..%d.", len(densityAges)),
		"# implicit and deviating split the hypothetical schedules those checkpoints write: as the release-start schedule with no offset, or not.",
		fmt.Sprintf("# REF/k12 is densityStream widened to %d organizations on %d machines, %d jobs per round, %d rounds (%d slots); it captures at r = %v.", wideOrgs, 2*wideOrgs, 5*wideOrgs, wideRounds, 1<<wideOrgs-1, wideAges),
	}
	newRef := func(in *model.Instance) *schedSet { return NewRef(in, RefOptions{}).set() }
	heap := measureWork(t, in, releases, densityRounds, densityAges, newRef, false)
	scan := measureWork(t, in, releases, densityRounds, densityAges, newRef, true)
	ledger = append(ledger, heap.line("REF/heap", false)+heap.schedules(), scan.line("REF/scan", true))
	for name, w := range map[string]*work{"touched-set loop": heap, "oracle": scan} {
		if uncontested := 1 - float64(w.contested)/float64(w.dispatches); uncontested < 0.8 {
			t.Errorf("REF, %s: %.1f %% of dispatches uncontested, below 80 %%: the work the touched-set loop skips is no longer the common case", name, 100*uncontested)
		}
	}
	rnd := measureWork(t, in, releases, densityRounds, densityAges, func(in *model.Instance) *schedSet { return NewRandSched(in, 15, 1, RandOptions{}).set() }, false)
	ledger = append(ledger, rnd.line("RAND(N=15)/heap", false)+rnd.schedules())
	nbs := measureWork(t, in, releases, densityRounds, densityAges, func(in *model.Instance) *schedSet { return NewNbs(in).set() }, false)
	ledger = append(ledger, nbs.line("NBS/heap", false)+nbs.schedules())
	direct := measureWork(t, in, releases, densityRounds, densityAges, func(in *model.Instance) *schedSet { return setOf(DirectContrAlgorithm().NewStepper(in, 1)) }, false)
	ledger = append(ledger, direct.line("DIRECTCONTR/heap", false))
	wide, wideReleases := wideStream(wideOrgs, wideRounds)
	k12 := measureWork(t, wide, wideReleases, wideRounds, wideAges, newRef, false)
	ledger = append(ledger, k12.line("REF/k12", false)+k12.schedules())
	for name, w := range map[string]*work{"REF": heap, "RAND(N=15)": rnd} {
		if 10*w.eager > w.hypothetical {
			t.Errorf("%s: %d of %d hypothetical dispatches made by a touch: free flow takes less than 90 %% of them", name, w.eager, w.hypothetical)
		}
	}
	if !maps.Equal(heap.perInstant, scan.perInstant) {
		t.Errorf("dispatching slots per instant differ between the loop and the oracle:\n%v\n%v", heap.perInstant, scan.perInstant)
	}
	if heap.ckpt != scan.ckpt {
		t.Errorf("REF checkpoints %+v stepped by the loop, %+v by the oracle: a capture depends on the stepping", heap.ckpt, scan.ckpt)
	}
	if heap.completed != scan.completed {
		t.Errorf("%d jobs completed by the horizon in the loop, %d in the oracle", heap.completed, scan.completed)
	}
	if heap.steps >= scan.steps {
		t.Errorf("the loop took %d steps, the oracle %d", heap.steps, scan.steps)
	}
	if 2*heap.touched > slots*scan.steps {
		t.Errorf("the loop touched %d slots, more than half the oracle's %d slot-steps", heap.touched, slots*scan.steps)
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

// BenchmarkReleaseStartCensus takes the REF/k12 line's capture census
// at k = 16 (65 535 slots; 25 s a run on two cores): REF on
// wideStream(16, 20) captured at wideAges. It reports the hypothetical
// schedules written implicit and deviating per capture, and the share
// deviating of 2^16; ROADMAP item 10(b) stops if that share exceeds one
// half. Run it with -benchtime=1x.
func BenchmarkReleaseStartCensus(b *testing.B) {
	in, _ := wideStream(16, 20)
	for i := 0; i < b.N; i++ {
		c := captureCensus(b, in, wideAges, func(in *model.Instance) Stepper { return NewRef(in, RefOptions{}) })
		per := float64(len(wideAges))
		b.ReportMetric(float64(c.implicit)/per, "implicit/capture")
		b.ReportMetric(float64(c.deviating)/per, "deviating/capture")
		b.ReportMetric(float64(c.deviating)/per/(1<<16), "deviating/2^16")
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
			s, _, data := captureAged(b, in, 16, func(in *model.Instance) Stepper { return bc.alg.NewStepper(in, 1) })
			for i := 0; i < b.N; i++ {
				cp, err := s.Capture(1600)
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

// RAND (both samplers), NBS and every policy plug, which before the
// shared core advanced every schedule at every event, must reproduce the
// oracle exactly through the touched-set loop: same starts, ψ and
// bit-equal φ/targets, at full and truncated horizons.
func TestHeapDriverMatchesScanDriverRandNbs(t *testing.T) {
	for _, alg := range diffFamilies(12)[2:] {
		for seed := int64(0); seed < 30; seed++ {
			r := rand.New(rand.NewSource(6000 + seed))
			k := 2 + r.Intn(5)
			in := diffInstance(r, k)
			for _, horizon := range []model.Time{in.Horizon() + 2, in.Horizon()/2 + 1} {
				scan := runStepper(oracleOf(alg, in, seed), horizon)
				heap := runStepper(alg.NewStepper(in, seed), horizon)
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
			set, dormant := setOf(s), -1
			for i, c := range set.slots {
				if c.Coalition() == model.Singleton(2) {
					dormant = i
				}
			}
			// nextAfter is the singleton's next completion after t, read
			// from the ledger while the set holds it in free flow.
			nextAfter := func(t model.Time) model.Time {
				if hasBit(set.flow, dormant) {
					return set.q.StartsCompletionAfter(model.Singleton(2), t)
				}
				return set.slots[dormant].NextCompletionAfter(t)
			}
			// C's singleton holds C's one job until a fold processes its
			// completion.
			if dormant >= 0 {
				if next := nextAfter(steadyFold - 1); next != steadyFold {
					t.Fatalf("C's singleton completes next at %d before the measurement, want %d", next, steadyFold)
				}
			}
			if avg := testing.AllocsPerRun(100, func() { s.StepNext(horizon) }); avg != 0 {
				t.Errorf("steady-state StepNext allocates %.2f times per run, budget is 0", avg)
			}
			if !s.StepNext(horizon) {
				t.Fatal("events drained during measurement")
			}
			if dormant >= 0 && nextAfter(steadyFold-1) != sim.MaxTime {
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
// and the oracle steps eagerly; none of them builds a ledger, and none
// of their slots ever enters free flow. On identical machines REF and
// RAND keep one, and their slots flow.
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
		oracle bool
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
			if tc.oracle {
				st = newOracle(s)
			}
			flowed := false
			check := func() {
				t.Helper()
				if kept := !reflect.ValueOf(s.q).Elem().FieldByName("starts").IsNil(); kept != tc.ledger {
					t.Fatalf("release-start ledger kept: %v, want %v", kept, tc.ledger)
				}
				for _, c := range s.slots {
					flowed = flowed || flowing(c)
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
