package core

import (
	"fmt"
	"math/bits"
	"math/rand"

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
// nothing waiting is dormant: keyed at no instant, and open to its
// members' releases. A step finds the earliest instant t —
// the smallest key or the next release — and takes exactly the touched
// set, in slot order: the slots keyed t and the dormant slots whose
// coalition holds an organization releasing a job at t. It advances and
// dispatches only those, and stores their new keys. A dormant slot's
// completions decide nothing, so they wait in it until the next touch
// or value read (valueAt), which folds them; an instant with nothing
// else to do is never stepped to. A slot's value is read from its own
// accounts (sim.Cluster.ValueAt), or, in free flow, which only the set
// tracks, with the ledger's (sim.Cluster.FlowValueAt). The instant is a
// scan of adjacent keys; an ordered structure would pay a re-sift per
// touched slot instead. The touched set is found by organization, not
// by slot: the set keeps its slots' states as bitsets, and one bitset
// per organization of the slots holding it, so a step reads only the
// slots with a key and those holding a releasing organization
// (DESIGN.md §2.3).
//
// Where every machine runs at one speed and an organization belongs to
// two or more hypothetical schedules, a hypothetical schedule with
// nothing waiting that runs exactly its members' jobs started at their
// release is in free flow: the queues keep one release-start ledger for
// the set, which books each released job once as started at its
// release, and the slot keeps only a finished-work offset to it, keyed
// at no instant and closed to releases. A step asks each slot in free
// flow holding a releasing and an overloaded organization whether the
// releases, held apart until then (sim.Queues.BookReleases), overflow
// its machines (sim.Queues.Overflows, a subset sum over its members);
// one that overflows is materialized and touched as a dormant slot. A
// touch, fold or restore that leaves a slot qualified puts it back. Four
// sim.Cluster invariants make this equivalent to advancing everything
// (DESIGN.md §2.2):
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
//  4. A slot in free flow is the release-start schedule of its members
//     plus a finished offset: while their releases fit its pool each
//     starts at its release, as the ledger books it. Its pool is its
//     members' machines, so it overflows exactly when its members'
//     running and fresh jobs less their machines sum above 0, which
//     needs a member whose own term is above 0 (an overloaded one).
//
// A dispatch with one organization waiting asks nothing: Select must
// name an organization with a waiting job and nothing arrives during a
// dispatch, so the slot starts that organization's head jobs
// (sim.Cluster.StartHeads) without a target refresh or a Select. A
// contested dispatch refreshes its slot's targets first. They are read
// by nothing else — phiAt recomputes — and are not checkpointed.
//
// Every set steps this one loop, a one-slot set (a FromPolicy baseline)
// included. The differential tests hold it to an oracle that advances
// every slot to every event and refreshes targets at every dispatch
// (oracle_test.go).
//
// Keys, bitsets, free flow and the ledger are never serialized: restore
// rebuilds them from the cluster states and stays byte-identical.
type schedSet struct {
	name string
	seed int64
	inst *model.Instance
	plug plug

	q     *sim.Queues    // every slot's job queues
	slots []*sim.Cluster // dispatch order; the last is the decision schedule
	ckpt  []int          // checkpoint position -> slot, set by the plug; nil is slot order
	src   *stats.Source  // the decision schedule's RNG stream; nil when it has none
	// ask: every start asks the policy, uncontested or not. A policy
	// plug's policy may keep state per Select (RoundRobin's rotation);
	// every other plug's slots select by targets or FCFS, from the view.
	ask bool
	// now is the latest instant stepped or finished to, or drained to by
	// a StepNext that found nothing to step: every event up to it is
	// processed, or a completion in a dormant slot.
	now model.Time

	keys []model.Time // slot -> its next completion while a job waits in it, else sim.MaxTime
	// Slot bitsets, bit i%64 of word i/64 for slot i: keyed holds the
	// slots with a key, open those with nothing waiting and not in free
	// flow (dormant: open to their members' releases), flow those in free
	// flow; member holds organization u's slots, those whose coalition
	// has u, at words u·w to u·w+w−1.
	keyed, open, flow, member []uint64
	ledger                    bool  // the queues keep a release-start ledger: slots may flow
	touched                   []int // scratch
}

// plug is what an algorithm adds to the schedule-set core.
type plug interface {
	// retarget refreshes the target vector the slot's policy selects
	// by, at instant t, immediately before a contested dispatch. It
	// writes only target vectors, from the values at t.
	retarget(slot int, t model.Time)
	// phiAt returns the contribution (or target) vector Result reports
	// at t, nil for algorithms that compute none. Every slot stands at
	// t when it is called.
	phiAt(t model.Time) []float64
}

// newSchedSet builds a set on slots built on q.
func newSchedSet(name string, seed int64, inst *model.Instance, p plug, q *sim.Queues, slots []*sim.Cluster) *schedSet {
	s := &schedSet{
		name:  name,
		seed:  seed,
		inst:  inst,
		plug:  p,
		q:     q,
		slots: slots,
	}
	_, s.ask = p.(policyPlug)
	// Only the decision schedule's starts are ever read.
	for _, c := range slots[:len(slots)-1] {
		c.DiscardStarts()
	}
	s.rekeyAll()
	return s
}

// slotAt returns the slot at checkpoint position pos.
func (s *schedSet) slotAt(pos int) int {
	if s.ckpt == nil {
		return pos
	}
	return s.ckpt[pos]
}

// set exposes the core through the algorithm types that embed it.
func (s *schedSet) set() *schedSet { return s }

func (s *schedSet) decision() *sim.Cluster { return s.slots[len(s.slots)-1] }

// rekeyAll (re)builds the keys and slot bitsets from the current
// cluster states — at construction and after restore. A step re-keys only the slots it
// touches, and nothing else moves a key: Inject adds no waiting job and
// Withdraw frees no machine. A withdrawal can leave a keyed slot with
// nothing waiting; its key is then early, never late: the slot is
// touched at a completion where it decides nothing, and goes dormant.
// The differential tests hold the maintained keys to this rule.
//
// It also settles free flow: the set keeps a release-start ledger where
// it saves work (shared) and the machines share one speed, and every
// hypothetical schedule that qualifies enters it.
func (s *schedSet) rekeyAll() {
	s.ledger = s.q.KeepReleaseStarts(s.shared())
	n := len(s.slots)
	s.keys = make([]model.Time, n)
	s.touched = make([]int, 0, n)
	w := (n + 63) / 64
	b := make([]uint64, (3+len(s.inst.Orgs))*w)
	s.keyed, s.open, s.flow, s.member = b[:w:w], b[w:2*w:2*w], b[2*w:3*w:3*w], b[3*w:]
	for i, c := range s.slots {
		for m := uint32(c.Coalition()); m != 0; m &= m - 1 {
			setBit(s.member[bits.TrailingZeros32(m)*w:], i, true)
		}
		if s.ledger && c.Flow() {
			s.keys[i] = sim.MaxTime
			setBit(s.flow, i, true)
			continue
		}
		jobs, _ := c.Waiting()
		s.rekey(i, jobs > 0)
	}
}

// setBit sets or clears bit i of the slot bitset b.
func setBit(b []uint64, i int, on bool) {
	if on {
		b[i>>6] |= 1 << (i & 63)
	} else {
		b[i>>6] &^= 1 << (i & 63)
	}
}

// hasBit reports whether bit i of the slot bitset b is set.
func hasBit(b []uint64, i int) bool { return b[i>>6]>>(i&63)&1 != 0 }

// shared reports whether some organization belongs to two or more
// hypothetical schedules. Only then does a release-start ledger save
// work: it books a job once where each of those schedules would start
// it (NBS's singletons, one per organization, gain nothing).
func (s *schedSet) shared() bool {
	var once, twice model.Coalition
	for _, c := range s.slots[:len(s.slots)-1] {
		twice |= once & c.Coalition()
		once |= c.Coalition()
	}
	return twice != 0
}

// reflow puts slot, which has nothing waiting, into free flow if it
// qualifies (sim.Cluster.Flow).
func (s *schedSet) reflow(slot int) {
	if s.slots[slot].Flow() {
		s.keys[slot] = sim.MaxTime
		setBit(s.keyed, slot, false)
		setBit(s.open, slot, false)
		setBit(s.flow, slot, true)
	}
}

// rekey stores slot's key and whether a release touches it: keyed at its
// next completion while a job waits (no machine is free then), dormant
// otherwise.
func (s *schedSet) rekey(slot int, waiting bool) {
	w, bit := slot>>6, uint64(1)<<(slot&63)
	s.keyed[w] &^= bit
	s.open[w] &^= bit
	if !waiting {
		s.keys[slot] = sim.MaxTime
		s.open[w] |= bit
	} else if s.keys[slot] = s.slots[slot].NextCompletion(); s.keys[slot] != sim.MaxTime {
		s.keyed[w] |= bit
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
//
// A dormant slot whose fold leaves it qualified goes back to free flow;
// a slot in free flow reads the ledger (sim.Cluster.FlowValueAt).
func (s *schedSet) valueAt(slot int, t model.Time) int64 {
	c := s.slots[slot]
	if t <= s.now && c.NextCompletion() <= t {
		c.AdvanceTo(t)
		if s.ledger && hasBit(s.open, slot) {
			s.reflow(slot)
		}
	}
	if hasBit(s.flow, slot) {
		return c.FlowValueAt(t)
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
// the set's instant in any slot, a dormant slot's completions included,
// which StepNext folds instead of stepping to.
func (s *schedSet) NextEventTime() model.Time {
	t := s.q.NextRelease()
	var flowing model.Coalition // the organizations of the slots in free flow
	for i, c := range s.slots {
		if hasBit(s.flow, i) {
			flowing |= c.Coalition()
			continue
		}
		t = min(t, c.NextCompletionAfter(s.now))
	}
	return min(t, s.q.StartsCompletionAfter(flowing, s.now))
}

// instant returns the instant StepNext takes next: the next release or
// the smallest key.
func (s *schedSet) instant() model.Time {
	t := s.q.NextRelease()
	for _, k := range s.keys {
		t = min(t, k)
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
	touched := s.touched[:0]
	// Only a slot with a key, or one holding a releasing organization that
	// is open or — when one of its members is overloaded — in free flow,
	// can be touched: the selection reads those, in slot order.
	var over model.Coalition
	if s.ledger && releasing != 0 {
		over = s.q.Overloaded()
	}
	words := len(s.keyed)
	for w := range s.keyed {
		var rel, ovl uint64
		for m := uint32(releasing); m != 0; m &= m - 1 {
			rel |= s.member[bits.TrailingZeros32(m)*words+w]
		}
		for m := uint32(over); m != 0; m &= m - 1 {
			ovl |= s.member[bits.TrailingZeros32(m)*words+w]
		}
		// The three states are disjoint: a candidate in open or flow holds
		// a releasing organization.
		open, flow := s.open[w]&rel, s.flow[w]&rel&ovl
		for m := s.keyed[w] | open | flow; m != 0; m &= m - 1 {
			i := w<<6 | bits.TrailingZeros64(m)
			switch bit := m & -m; {
			case s.keys[i] == t || open&bit != 0:
				touched = append(touched, i)
			case flow&bit != 0 && s.q.Overflows(s.slots[i].Coalition()):
				// Free flow ends here: the slot is materialized with the
				// releases waiting, and steps as a dormant slot would.
				s.slots[i].Materialize()
				s.open[w] |= bit
				s.flow[w] &^= bit
				touched = append(touched, i)
			}
		}
	}
	s.touched = touched
	s.q.BookReleases()
	for _, i := range touched {
		c := s.slots[i]
		c.AdvanceTo(t)
		free := c.FreeMachines()
		// A dormant slot had nothing waiting when last touched, and every
		// member release since has touched it: only the members releasing
		// now can have a job waiting.
		among := c.Coalition()
		if hasBit(s.open, i) {
			among &= releasing
		}
		jobs, orgs := c.WaitingAmong(among)
		switch {
		case jobs == 0 || free == 0:
		case orgs.Size() == 1 && !s.ask:
			// Every start goes to the one organization waiting, whatever
			// the targets say (DESIGN.md §2, step 3).
			c.StartHeads(bits.TrailingZeros32(uint32(orgs)))
		default:
			if orgs.Size() > 1 {
				s.plug.retarget(i, t)
			}
			c.DispatchCount(jobs)
		}
		s.rekey(i, jobs > free)
		if s.ledger && jobs <= free {
			s.reflow(i)
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
	s.q.BookReleases()
	for _, c := range s.slots {
		c.AdvanceTo(t)
	}
	if s.ledger {
		for w, open := range s.open {
			for m := open; m != 0; m &= m - 1 {
				s.reflow(w<<6 | bits.TrailingZeros64(m))
			}
		}
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
		cp.Clusters[pos] = s.slots[s.slotAt(pos)].CaptureState()
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
			slot := s.slotAt(pos)
			if (slot == last) != decision {
				continue
			}
			if st.Now > cp.Now {
				// Schedules lag the run's clock or stand on it; the next
				// step would move one that leads it backwards.
				return fmt.Errorf("core: %s checkpoint at %d holds a schedule at %d", s.name, cp.Now, st.Now)
			}
			if st.AtRelease && cp.Version < 7 {
				return fmt.Errorf("core: %s checkpoint of version %d holds a release-start schedule, which version 7 introduced", s.name, cp.Version)
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
