package ctrl

import (
	"encoding/json"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/model"
)

// Sink is the data-plane half of a control plane: the owner-supplied
// executor the Plane hands admitted work to.
type Sink interface {
	// Route executes one admitted job at instant t, acting on view —
	// pick a target and feed the job. Called at RoutingDecisionEvents,
	// in (timestamp, priority, seqID) order.
	Route(job Job, t model.Time, view View) error
	// Refreshed fires when an observation captured a fresh snapshot,
	// before any decision of the instant acts on it — the
	// staleness-delimited edge internal/fed hooks its queued-job
	// re-delegation pass onto.
	Refreshed(t model.Time, view View) error
}

// Plane is one control plane: the prioritized event queue, the
// admission policy, the snapshot provider the decisions observe
// through, and the per-organization accounting. Single-goroutine, like
// the engines it fronts; the owner serializes access and drives it
// from its own step loop.
type Plane struct {
	q        EventQueue
	policy   AdmissionPolicy
	provider SnapshotProvider
	stats    *metrics.AdmissionStats
	nextSeq  int64
}

// NewPlane builds a control plane over the given policy and provider
// for an organization universe of the given size.
func NewPlane(policy AdmissionPolicy, provider SnapshotProvider, orgs int) *Plane {
	return &Plane{policy: policy, provider: provider, stats: metrics.NewAdmissionStats(orgs)}
}

// Stats returns the live admission accounting.
func (p *Plane) Stats() *metrics.AdmissionStats { return p.stats }

// Pending returns the number of queued control events (arrivals,
// verdicts and routings not yet processed, including deferred retries).
func (p *Plane) Pending() int { return p.q.Len() }

// Arrive admits one job into the control plane at instant at: an
// ArrivalEvent is queued and the job's sequence number returned. A
// negative job.Seq asks the plane to assign one from its own counter
// (single-cluster owners); non-negative sequence numbers pass through
// (the federation numbers jobs itself).
func (p *Plane) Arrive(job Job, at model.Time) int64 {
	if job.Seq < 0 {
		job.Seq = p.nextSeq
		p.nextSeq++
	}
	job.Arrived = at
	p.q.Push(Event{At: at, Prio: PrioArrival, Job: job})
	return job.Seq
}

// NextEventTime returns the earliest pending control event's instant.
func (p *Plane) NextEventTime() (model.Time, bool) {
	e, ok := p.q.Peek()
	if !ok {
		return 0, false
	}
	return e.At, true
}

// Advance processes every control event at or before now, in
// (timestamp, priority, seqID) order: arrivals spawn admission
// decisions, admission decisions consult the policy on the instant's
// view and spawn routing decisions (or reject / defer), and routing
// decisions hand the job to the sink. One view is observed per event
// instant — all of an instant's decisions act on the same observation,
// exactly as a batch routed on one exchange did pre-control-plane —
// and a fresh observation fires sink.Refreshed before any decision
// uses it. After the drain the admission conservation law is checked:
// admitted + rejected + deferred == released, per organization.
func (p *Plane) Advance(now model.Time, sink Sink) error {
	var (
		view    View
		viewAt  model.Time
		haveRef bool
	)
	for {
		ev, ok := p.q.Peek()
		if !ok || ev.At > now {
			break
		}
		p.q.Pop()
		t := ev.At
		if !haveRef || viewAt != t {
			var refreshed bool
			view, refreshed = p.provider.Observe(t)
			viewAt, haveRef = t, true
			if refreshed {
				if err := sink.Refreshed(t, view); err != nil {
					return err
				}
			}
		}
		switch ev.Prio {
		case PrioArrival:
			// Release is counted here, not at Arrive: an arrival still
			// queued is not yet in the system, and every processed
			// arrival reaches a same-instant verdict within this drain —
			// which is what keeps the conservation check below exact at
			// every quiescent instant.
			p.stats.Release(ev.Job.Org)
			p.q.Push(Event{At: t, Prio: PrioAdmission, Job: ev.Job})
		case PrioAdmission:
			if ev.Attempt > 0 {
				p.stats.Resume(ev.Job.Org)
			}
			d := p.policy.Decide(ev.Job, ev.Attempt, t, view)
			switch d.Verdict {
			case Admitted:
				p.q.Push(Event{At: t, Prio: PrioRouting, Job: ev.Job})
				p.stats.Admit(ev.Job.Org, int64(t-ev.Job.Arrived))
			case Rejected:
				p.stats.Reject(ev.Job.Org, int64(t-ev.Job.Arrived))
			case Deferred:
				if d.RetryAt <= t {
					return fmt.Errorf("ctrl: policy %q deferred job %d to %d without advancing past %d",
						p.policy.Name(), ev.Job.Seq, d.RetryAt, t)
				}
				p.stats.Defer(ev.Job.Org)
				p.q.Push(Event{At: d.RetryAt, Prio: PrioAdmission, Job: ev.Job, Attempt: ev.Attempt + 1})
			default:
				return fmt.Errorf("ctrl: policy %q returned unknown verdict %d", p.policy.Name(), d.Verdict)
			}
		case PrioRouting:
			if err := sink.Route(ev.Job, t, view); err != nil {
				return err
			}
		default:
			return fmt.Errorf("ctrl: unknown event priority %d", ev.Prio)
		}
	}
	return p.stats.CheckConserved()
}

// CheckpointVersion identifies the serialized control-plane layout.
const CheckpointVersion = 1

// Checkpoint is the plane's complete serializable dynamic state. The
// snapshot provider's cached view is owner state (the owner knows its
// payload type) and is persisted by the owner, not here.
type Checkpoint struct {
	Version int                     `json:"version"`
	Policy  string                  `json:"policy"`
	Queue   queueState              `json:"queue"`
	NextSeq int64                   `json:"next_seq,omitempty"`
	PolicyS json.RawMessage         `json:"policy_state,omitempty"`
	Stats   *metrics.AdmissionStats `json:"stats"`
}

// State serializes the plane's dynamic state.
func (p *Plane) State() (json.RawMessage, error) {
	ps, err := p.policy.StateJSON()
	if err != nil {
		return nil, fmt.Errorf("ctrl: serialize policy %q: %w", p.policy.Name(), err)
	}
	return json.Marshal(Checkpoint{
		Version: CheckpointVersion,
		Policy:  p.policy.Name(),
		Queue:   p.q.state(),
		NextSeq: p.nextSeq,
		PolicyS: ps,
		Stats:   p.stats,
	})
}

// RestoreState rebuilds the plane's dynamic state from a State
// serialization. The configured policy must match the one that
// captured it.
func (p *Plane) RestoreState(data json.RawMessage) error {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return fmt.Errorf("ctrl: restore plane: %w", err)
	}
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("ctrl: restore plane: checkpoint version %d, want %d", cp.Version, CheckpointVersion)
	}
	if cp.Policy != p.policy.Name() {
		return fmt.Errorf("ctrl: restore plane: checkpoint admitted by %q, plane configured with %q", cp.Policy, p.policy.Name())
	}
	if cp.Stats == nil {
		return fmt.Errorf("ctrl: restore plane: checkpoint has no admission stats")
	}
	if cp.Stats.Orgs() != p.stats.Orgs() {
		return fmt.Errorf("ctrl: restore plane: checkpoint counts %d organizations, plane %d", cp.Stats.Orgs(), p.stats.Orgs())
	}
	// The queue is outside input: an event this plane could not have
	// queued would index past the per-organization counters, or fall
	// through the priority switch, at the next Advance. It is also the
	// record of who waits on a retry; the stats' gauge is a copy.
	parked := make([]int64, p.stats.Orgs())
	for i, e := range cp.Queue.Events {
		if e.Prio > PrioRouting || e.Job.Org < 0 || e.Job.Org >= p.stats.Orgs() || e.Job.Size < 1 || e.Attempt < 0 {
			return fmt.Errorf("ctrl: restore plane: queued event %d (prio %d, org %d of %d, size %d, attempt %d) is not one the plane queues",
				i, e.Prio, e.Job.Org, p.stats.Orgs(), e.Job.Size, e.Attempt)
		}
		if e.Prio == PrioAdmission && e.Attempt > 0 {
			parked[e.Job.Org]++
		}
	}
	cp.Stats.Deferred = parked
	if err := cp.Stats.CheckConserved(); err != nil {
		return fmt.Errorf("ctrl: restore plane: %w", err)
	}
	if err := p.policy.RestoreState(cp.PolicyS, p.stats.Orgs()); err != nil {
		return err
	}
	p.q.restore(cp.Queue)
	p.nextSeq = cp.NextSeq
	p.stats = cp.Stats
	return nil
}
