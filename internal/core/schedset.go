package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// schedSet is the one event loop under every stepper in this package —
// the FairAlgorithm loop of Figures 1, 3 and 6: advance the maintained
// schedules to the next event, refresh the target vector, start the job
// of the organization with the largest deficit. It owns an ordered
// family of sim.Cluster slots, held in dispatch order with the decision
// schedule (the one whose starts are real) last, and implements Stepper
// on them once. An algorithm is a plug: it says which schedules exist,
// in which order they are checkpointed, and how a dispatching slot's
// target vector is refreshed (see the plug table in DESIGN.md §2).
//
// Every slot is built on one sim.Queues: an organization's jobs are
// queued once, in release order, and a slot keeps a cursor into each
// queue. The set releases the queues at every instant before any slot
// advances, so a submission is entered, and a release queued, once.
//
// By default the set steps only what can decide. A slot with a job
// waiting is keyed at its next completion, in a flat array; a slot with
// nothing waiting is dormant: keyed at no instant, and open, beside the
// keys, to its members' releases. A step finds the earliest instant t —
// the smallest key or the next release — and takes exactly the touched
// set, in slot order: the slots keyed t and the dormant slots whose
// coalition holds an organization releasing a job at t. It advances and
// dispatches only those, and stores their new keys. A dormant slot's
// completions decide nothing, so they wait in it until the next touch
// or value read (valueAt), which folds them; an instant with nothing
// else to do is never stepped to. Every slot's value is read in O(1)
// from its own accounts (sim.Cluster.ValueAt). The scan is 2^k compares
// of adjacent words; an ordered structure would pay a re-sift per
// touched slot instead (DESIGN.md §2.3). Three sim.Cluster invariants
// make this equivalent to advancing everything (DESIGN.md §2.2):
//
//  1. A cluster can become dispatchable only through one of its own
//     completions, or a release of a member while it has a free
//     machine: Dispatch always exhausts either the free machines or the
//     waiting jobs, and only completions free machines. A slot with a
//     job waiting has no free machine, so it starts nothing before its
//     next completion, and a release changes nothing it stores but the
//     shared queue.
//  2. Jobs started at t have executed nothing before t, so values at t
//     are unaffected by same-instant starts — one value snapshot serves
//     every slot dispatching at t, in any order.
//  3. A slot with nothing waiting decides nothing until a member
//     releases: its completions only free machines, and they are booked
//     the same whenever they are processed.
//
// A dispatch with one organization waiting asks nothing: Select must
// name an organization with a waiting job and nothing arrives during a
// dispatch, so the slot starts that organization's head jobs
// (sim.Cluster.StartHeads) without a target refresh or a Select. A
// contested dispatch refreshes its slot's targets first. They are read
// by nothing else — phiAt recomputes — and are not checkpointed.
//
// The reference mode (scan; RefOptions.Driver == DriverScan) is the
// same loop with the acceleration removed: the instant is found by
// asking every cluster for its next completion, every slot is touched
// at every instant — never a key, never a fold — and every dispatch
// refreshes its targets and asks the policy for every start. It is the
// oracle the differential tests hold the default mode to, and what a
// one-slot set runs (there is nothing to skip).
//
// Keys are never serialized: restore rebuilds them from the cluster
// states and stays byte-identical.
type schedSet struct {
	name string
	seed int64
	inst *model.Instance
	plug plug

	q     *sim.Queues    // every slot's job queues
	slots []*sim.Cluster // dispatch order; the last is the decision schedule
	ckpt  []int          // checkpoint position -> slot; slot order unless the plug sets it
	src   *stats.Source  // the decision schedule's RNG stream; nil when it has none
	scan  bool           // reference mode
	// ask: every start asks the policy, uncontested or not. A policy
	// plug's policy may keep state per Select (RoundRobin's rotation);
	// every other plug's slots select by targets or FCFS, from the view.
	ask bool
	// now is the latest instant stepped or finished to, or drained to by
	// a StepNext that found nothing to step: every event up to it is
	// processed, or a completion in a dormant slot.
	now model.Time

	keys    []model.Time      // slot -> its next completion while a job waits in it, else sim.MaxTime
	open    []model.Coalition // slot -> its coalition while nothing waits in it, else empty
	all     []int             // 0..len(slots)-1: the touched set of the reference mode and of FinishAt
	touched []int             // scratch
}

// plug is what an algorithm adds to the schedule-set core.
type plug interface {
	// retarget refreshes the target vector the slot's policy selects
	// by, at instant t, immediately before a dispatch: at every dispatch
	// in the reference mode, at a contested one otherwise. It writes
	// only target vectors, from the values at t.
	retarget(slot int, t model.Time)
	// phiAt returns the contribution (or target) vector Result reports
	// at t, nil for algorithms that compute none. Every slot stands at
	// t when it is called.
	phiAt(t model.Time) []float64
}

// newSchedSet builds a set on slots built on q.
func newSchedSet(name string, seed int64, inst *model.Instance, p plug, q *sim.Queues, slots []*sim.Cluster, scan bool) *schedSet {
	s := &schedSet{
		name:  name,
		seed:  seed,
		inst:  inst,
		plug:  p,
		q:     q,
		slots: slots,
		scan:  scan || len(slots) == 1,
		all:   identity(len(slots)),
	}
	_, s.ask = p.(policyPlug)
	s.ckpt = s.all
	// Only the decision schedule's starts are ever read.
	for _, c := range slots[:len(slots)-1] {
		c.DiscardStarts()
	}
	s.rekeyAll()
	return s
}

// identity returns the slot list 0..n-1. Every set of a given size
// sweeps the same list, so one immutable, append-only table serves them
// all (prefixes handed out earlier stay valid when it grows) and
// building a set — the daemon builds one per session — does not pay an
// allocation for it.
func identity(n int) []int {
	identityTable.Lock()
	defer identityTable.Unlock()
	for len(identityTable.s) < n {
		identityTable.s = append(identityTable.s, len(identityTable.s))
	}
	return identityTable.s[:n:n]
}

var identityTable struct {
	sync.Mutex
	s []int
}

// set exposes the core through the algorithm types that embed it.
func (s *schedSet) set() *schedSet { return s }

func (s *schedSet) decision() *sim.Cluster { return s.slots[len(s.slots)-1] }

// rekeyAll (re)builds the keys from the current cluster states — at
// construction and after restore. A step re-keys only the slots it
// touches, and nothing else moves a key: Inject adds no waiting job and
// Withdraw frees no machine. A withdrawal can leave a keyed slot with
// nothing waiting; its key is then early, never late: the slot is
// touched at a completion where it decides nothing, and goes dormant.
// The differential tests hold the maintained keys to this rule.
func (s *schedSet) rekeyAll() {
	if s.scan {
		return
	}
	n := len(s.slots)
	s.keys = make([]model.Time, n)
	s.open = make([]model.Coalition, n)
	s.touched = make([]int, 0, n)
	for i, c := range s.slots {
		jobs, _ := c.Waiting()
		s.rekey(i, jobs > 0)
	}
}

// rekey stores slot's key and whether a release touches it: keyed at its
// next completion while a job waits (no machine is free then), dormant
// otherwise.
func (s *schedSet) rekey(slot int, waiting bool) {
	c := s.slots[slot]
	if waiting {
		s.keys[slot], s.open[slot] = c.NextCompletion(), 0
	} else {
		s.keys[slot], s.open[slot] = sim.MaxTime, c.Coalition()
	}
}

// valueAt is slot's coalition value at t, an instant the set has
// reached. A slot with a completion due by t is advanced to t first. A
// dormant slot may hold completions up to t, and folding them is all a
// step there would have done: nothing waits in it, and no member has
// released since its last touch (a release touches it). Mid-step, a
// touched slot the pass has not reached yet lags t too — StepNext
// advances each slot just before it dispatches, and a contested
// dispatch reads other slots' values — and advancing it is the first
// thing the pass would do there: its own AdvanceTo(t) then finds
// nothing left. Every other slot stands at t or lags it with no event
// in between, where its accounts are exact.
func (s *schedSet) valueAt(slot int, t model.Time) int64 {
	c := s.slots[slot]
	if t <= s.now && c.NextCompletion() <= t {
		c.AdvanceTo(t)
	}
	return c.ValueAt(t)
}

// Name implements Stepper.
func (s *schedSet) Name() string { return s.name }

// Instance implements Stepper.
func (s *schedSet) Instance() *model.Instance { return s.inst }

// Starts implements Stepper.
func (s *schedSet) Starts() []sim.Start { return s.decision().Starts() }

// Withdrawn implements Stepper.
func (s *schedSet) Withdrawn() int { return s.decision().WithdrawnCount() }

// Queued implements Stepper.
func (s *schedSet) Queued(dst []int) []int { return s.decision().Queued(dst) }

// NextEventTime implements Stepper: the next release or completion after
// the set's instant in any slot — what the reference mode steps to next,
// a dormant slot's completions included, which StepNext folds instead.
func (s *schedSet) NextEventTime() model.Time {
	t := s.q.NextRelease()
	for _, c := range s.slots {
		t = min(t, c.NextCompletionAfter(s.now))
	}
	return t
}

// instant returns the instant StepNext takes next: the next release or
// the smallest key, or in the reference mode the smallest completion the
// clusters themselves answer.
func (s *schedSet) instant() model.Time {
	t := s.q.NextRelease()
	if !s.scan {
		for _, k := range s.keys {
			t = min(t, k)
		}
		return t
	}
	for _, c := range s.slots {
		t = min(t, c.NextCompletion())
	}
	return t
}

// StepNext implements Stepper: release the queues at the earliest
// instant, take its touched set and, in one pass in slot order, advance
// each touched slot, let it schedule if it can — an uncontested one
// without asking, a contested one against freshly refreshed targets —
// and re-key it. One pass serves because a refresh reads values through
// valueAt, which advances a slot the pass has not reached yet, and
// values at t do not depend on what starts at t (invariant 2).
func (s *schedSet) StepNext(until model.Time) bool {
	t := s.instant()
	if t == sim.MaxTime || t > until {
		// What is left up to until are completions in dormant slots.
		s.now = max(s.now, until)
		return false
	}
	s.now = t
	releasing := s.q.AdvanceTo(t)
	touched := s.all
	if !s.scan {
		touched = s.touched[:0]
		for i, k := range s.keys {
			if k == t || s.open[i]&releasing != 0 {
				touched = append(touched, i)
			}
		}
		s.touched = touched
	}
	for _, i := range touched {
		c := s.slots[i]
		c.AdvanceTo(t)
		free := c.FreeMachines()
		if s.scan && free == 0 {
			continue // nothing to start and no key to store: skip the count
		}
		// A dormant slot had nothing waiting when last touched, and every
		// member release since has touched it: only the members releasing
		// now can have a job waiting.
		among := c.Coalition()
		if !s.scan && s.open[i] != 0 {
			among = s.open[i] & releasing
		}
		jobs, orgs := c.WaitingAmong(among)
		switch {
		case jobs == 0 || free == 0:
		case orgs.Size() == 1 && !s.scan && !s.ask:
			// Every start goes to the one organization waiting, whatever
			// the targets say (DESIGN.md §2, step 3).
			c.StartHeads(bits.TrailingZeros32(uint32(orgs)))
		default:
			if s.scan || orgs.Size() > 1 {
				s.plug.retarget(i, t)
			}
			c.DispatchCount(jobs)
		}
		if !s.scan {
			s.rekey(i, jobs > free)
		}
	}
	return true
}

// FinishAt implements Stepper: move every slot's clock, and the queues',
// to exactly t. The caller has drained the events at or before t, so
// only clocks move and dormant slots fold: keys stay as they are.
func (s *schedSet) FinishAt(t model.Time) {
	s.now = t
	s.q.AdvanceTo(t)
	for _, c := range s.slots {
		c.AdvanceTo(t)
	}
}

// ResultAt implements Stepper.
func (s *schedSet) ResultAt(t model.Time) *Result {
	return resultFromCluster(s.name, s.decision(), t, s.plug.phiAt(t))
}

// Inject implements Stepper: register online arrivals (already appended
// to the instance) once, in the queues every slot shares. A pending
// release changes no key: it waits in no slot yet, and it is the
// queues' next event.
func (s *schedSet) Inject(ids []int) error { return s.q.Inject(ids...) }

// Withdraw implements Stepper: the job must still be waiting in the
// decision schedule — the schedule that actually executes work, so a
// caller withdrawing a job that is not queued there holds a stale view.
// It leaves the shared queue once: a hypothetical slot that already
// started the job keeps it (non-preemptive counterfactual work stands)
// and steps its cursor back over the gap; only the decision schedule
// records it as withdrawn. No executed work moves and no machine frees,
// so no key changes; one may be left early (rekeyAll).
func (s *schedSet) Withdraw(id int) error {
	if id < 0 || id >= len(s.inst.Jobs) {
		return fmt.Errorf("core: %s: withdraw: job %d not in instance", s.name, id)
	}
	removed, err := s.decision().Withdraw(s.inst.Jobs[id].Org, id)
	if err != nil {
		return err
	}
	if !removed {
		return fmt.Errorf("core: %s: withdraw: job %d is not queued (already started, finished or withdrawn)", s.name, id)
	}
	return nil
}

// Capture implements Stepper: one ClusterState per slot in the plug's
// checkpoint order, the decision RNG stream position, and a stateful
// decision policy's own capture. Target vectors carry no state — they
// are recomputed at every dispatch instant before they are read.
func (s *schedSet) Capture(now model.Time) (*Checkpoint, error) {
	cp := &Checkpoint{
		Version:   CheckpointVersion,
		Algorithm: s.name,
		Seed:      s.seed,
		Now:       now,
		Orgs:      append([]model.Org(nil), s.inst.Orgs...),
		Jobs:      append([]model.Job(nil), s.inst.Jobs...),
		Clusters:  make([]sim.ClusterState, len(s.slots)),
	}
	for pos := range cp.Clusters {
		cp.Clusters[pos] = s.slots[s.ckpt[pos]].CaptureState()
	}
	if s.src != nil {
		cp.RNG = []uint64{s.src.State()}
	}
	if sp, ok := s.decision().Policy().(sim.StatefulPolicy); ok {
		data, err := sp.CapturePolicyState()
		if err != nil {
			return nil, fmt.Errorf("core: capture policy state: %w", err)
		}
		cp.Policy = data
	}
	return cp, nil
}

// restore overwrites a freshly built set with a captured one. It fails
// closed: a set that captures an RNG position or a policy blob rejects
// a checkpoint lacking it rather than restarting that state from the
// seed.
func (s *schedSet) restore(cp *Checkpoint) error {
	if len(cp.Clusters) != len(s.slots) {
		return fmt.Errorf("core: %s checkpoint has %d clusters, want %d", s.name, len(cp.Clusters), len(s.slots))
	}
	// The decision schedule rebuilds the shared queues from its log and
	// queues; every other schedule's waiting counts then index them.
	last := len(s.slots) - 1
	for _, decision := range []bool{true, false} {
		for pos, st := range cp.Clusters {
			slot := s.ckpt[pos]
			if (slot == last) != decision {
				continue
			}
			if st.Now > cp.Now {
				// Schedules lag the run's clock or stand on it; the next
				// step would move one that leads it backwards.
				return fmt.Errorf("core: %s checkpoint at %d holds a schedule at %d", s.name, cp.Now, st.Now)
			}
			if err := s.slots[slot].RestoreState(st); err != nil {
				return err
			}
		}
	}
	if s.src != nil {
		if len(cp.RNG) == 0 {
			return fmt.Errorf("core: %s checkpoint lacks the RNG stream position", s.name)
		}
		s.src.SetState(cp.RNG[0])
	}
	if sp, ok := s.decision().Policy().(sim.StatefulPolicy); ok {
		if len(cp.Policy) == 0 {
			return fmt.Errorf("core: %s checkpoint lacks the policy state", s.name)
		}
		if err := sp.RestorePolicyState(cp.Policy); err != nil {
			return fmt.Errorf("core: restore policy state: %w", err)
		}
	}
	s.rekeyAll()
	return nil
}

// restoreStepper is every algorithm's RestoreStepper: rebuild the
// instance, build the stepper the algorithm's configuration describes,
// overwrite its set.
func restoreStepper(a StepperAlgorithm, cp *Checkpoint) (Stepper, error) {
	if cp.Algorithm != a.Name() {
		return nil, fmt.Errorf("core: checkpoint for %q restored as %q", cp.Algorithm, a.Name())
	}
	inst, err := cp.RebuildInstance()
	if err != nil {
		return nil, err
	}
	st := a.NewStepper(inst, cp.Seed)
	if err := st.(interface{ set() *schedSet }).set().restore(cp); err != nil {
		return nil, err
	}
	return st, nil
}

// deficitPolicy is the SelectAndSchedule rule of Figures 3 and 6: start
// a job of the waiting organization with the largest deficit target−ψ,
// low index on ties. target is owned by the plug and refreshed by
// retarget; only members wait, so it scans the coalition's members, in
// index order.
type deficitPolicy struct {
	name   string
	target []float64
	// adj, when non-nil, is the within-instant rotation ablation
	// (RefOptions.Rotate): after each start the chosen organization is
	// provisionally charged one unit and every member credited 1/‖C‖.
	adj  []float64
	view *sim.View
}

// Name implements sim.Policy.
func (p *deficitPolicy) Name() string { return p.name }

// Attach implements sim.Policy.
func (p *deficitPolicy) Attach(v *sim.View, _ *rand.Rand) { p.view = v }

// Select implements sim.Policy.
func (p *deficitPolicy) Select(_ model.Time, _ int) int {
	best := -1
	var bestDeficit float64
	for m := uint32(p.view.Coalition()); m != 0; m &= m - 1 {
		u := bits.TrailingZeros32(m)
		if p.view.Waiting(u) == 0 {
			continue
		}
		target := p.target[u]
		if p.adj != nil {
			target += p.adj[u]
		}
		deficit := target - float64(p.view.Psi(u))
		if best == -1 || deficit > bestDeficit {
			best, bestDeficit = u, deficit
		}
	}
	if p.adj != nil {
		members := p.view.Coalition()
		size := float64(members.Size())
		members.EachMember(func(u int) { p.adj[u] += 1 / size })
		p.adj[best]--
	}
	return best
}
