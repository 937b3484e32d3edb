package ctrl

import (
	"fmt"
	"slices"

	"repro/internal/metrics"
	"repro/internal/model"
)

// Sink is the data-plane half of a control plane: the owner-supplied
// executor the Plane hands admitted work to.
type Sink interface {
	// Route executes one admitted job at instant t, acting on view —
	// pick a target and feed the job. Called right after the job's
	// admitting verdict, in verdict order.
	Route(job Job, t model.Time, view View) error
	// Refreshed fires when an observation captured a fresh snapshot,
	// before any decision of the instant acts on it — the
	// staleness-delimited edge internal/fed hooks its queued-job
	// re-delegation pass onto.
	Refreshed(t model.Time, view View) error
}

// Plane is one control plane: the queue of jobs awaiting a verdict,
// the admission policy, the snapshot provider the decisions observe
// through, and the per-organization accounting. Single-goroutine, like
// the engines it fronts; the owner serializes access and drives it
// from its own step loop.
type Plane struct {
	q        verdictQueue
	policy   AdmissionPolicy
	provider SnapshotProvider
	stats    *metrics.AdmissionStats
}

// NewPlane builds a control plane over the given policy and provider
// for an organization universe of the given size.
func NewPlane(policy AdmissionPolicy, provider SnapshotProvider, orgs int) *Plane {
	return &Plane{policy: policy, provider: provider, stats: metrics.NewAdmissionStats(orgs)}
}

// Stats returns the live admission accounting.
func (p *Plane) Stats() *metrics.AdmissionStats { return p.stats }

// Arrive queues one job, numbered by its owner, for its verdict at
// instant at.
func (p *Plane) Arrive(job Job, at model.Time) {
	job.Arrived = at
	p.q.push(waiting{At: at, Job: job})
}

// NextEventTime returns the earliest instant a queued job is decided at.
func (p *Plane) NextEventTime() (model.Time, bool) {
	if len(p.q.h) == 0 {
		return 0, false
	}
	return p.q.h[0].At, true
}

// Advance decides every queued job whose instant is at or before now,
// in verdict order, one pass per job: count its release (or its
// resumption from a deferral), ask the policy on the instant's view,
// and hand an admitted job to the sink at once. Deciding and routing
// job by job is the run that decides the whole instant and then routes
// it: a verdict reads the instant's frozen view and the policy's own
// state, routing reads that view and the sink, and a deferral lands
// strictly later — neither sees what the other did at the instant. One
// view is observed per instant, and a fresh observation fires
// sink.Refreshed before any decision uses it. After the drain the
// admission conservation law is checked: admitted + rejected + deferred
// == released, per organization.
func (p *Plane) Advance(now model.Time, sink Sink) error {
	var (
		view     View
		viewAt   model.Time
		observed bool
	)
	for len(p.q.h) > 0 && p.q.h[0].At <= now {
		w := p.q.pop()
		t, job := w.At, w.Job
		if !observed || viewAt != t {
			var refreshed bool
			view, refreshed = p.provider.Observe(t)
			viewAt, observed = t, true
			if refreshed {
				if err := sink.Refreshed(t, view); err != nil {
					return err
				}
			}
		}
		// A release is counted here, not at Arrive: an arrival still
		// queued is not yet in the system, and every counted one has its
		// verdict before Advance returns — which is what keeps the
		// conservation check below exact at every quiescent instant.
		if w.Attempt > 0 {
			p.stats.Resume(job.Org)
		} else {
			p.stats.Release(job.Org)
		}
		d := p.policy.Decide(job, w.Attempt, t, view)
		switch d.Verdict {
		case Admitted:
			p.stats.Admit(job.Org, int64(t-job.Arrived))
			if err := sink.Route(job, t, view); err != nil {
				return err
			}
		case Rejected:
			p.stats.Reject(job.Org, int64(t-job.Arrived))
		case Deferred:
			if d.RetryAt <= t {
				return fmt.Errorf("ctrl: policy %q deferred job %d to %d without advancing past %d",
					p.policy.Name(), job.Seq, d.RetryAt, t)
			}
			p.stats.Defer(job.Org)
			p.q.push(waiting{At: d.RetryAt, Job: job, Attempt: w.Attempt + 1})
		default:
			return fmt.Errorf("ctrl: policy %q returned unknown verdict %d", p.policy.Name(), d.Verdict)
		}
	}
	return p.stats.CheckConserved()
}

// Checkpoint is the plane's complete dynamic state, a typed part of its
// owner's document: the queue listed in verdict order, a token bucket's
// levels and the admission counters, and nothing that order, the
// counters and the list itself already say. The owner's document names
// the policy and versions the layout. The snapshot provider's cached
// view is owner state (the owner knows its payload type) and is
// persisted by the owner, not here.
type Checkpoint struct {
	Queue  queueState              `json:"queue"`
	Bucket *bucketLevels           `json:"policy_state,omitempty"`
	Stats  *metrics.AdmissionStats `json:"stats"`
}

// queueState is the serialized queue: the waiting jobs, in verdict
// order.
type queueState struct {
	Events []waiting `json:"events,omitempty"`
}

// State returns the plane's dynamic state. It shares the plane's
// counters and bucket levels, so it is encoded before the plane moves
// again.
func (p *Plane) State() *Checkpoint {
	events := slices.Clone(p.q.h)
	slices.SortFunc(events, compareVerdict)
	cp := &Checkpoint{Queue: queueState{Events: events}, Stats: p.stats}
	if b, ok := p.policy.(*TokenBucket); ok {
		cp.Bucket = &bucketLevels{Levels: b.levels, Synced: b.synced}
	}
	return cp
}

// RestoreState rebuilds the plane's dynamic state from a State capture
// taken under the same admission policy: a token bucket's capture holds
// its levels, and any other's holds none.
func (p *Plane) RestoreState(cp *Checkpoint) error {
	if cp.Stats == nil {
		return fmt.Errorf("ctrl: restore plane: checkpoint has no admission stats")
	}
	if cp.Stats.Orgs() != p.stats.Orgs() {
		return fmt.Errorf("ctrl: restore plane: checkpoint counts %d organizations, plane %d", cp.Stats.Orgs(), p.stats.Orgs())
	}
	// The queue is outside input: a job this plane could not have queued
	// would index past the per-organization counters at the next Advance.
	// It is also the record of who waits on a retry — the stats' gauge is
	// a copy.
	events := cp.Queue.Events
	parked := make([]int64, p.stats.Orgs())
	for i, e := range events {
		if e.Job.Org < 0 || e.Job.Org >= p.stats.Orgs() || e.Job.Size < 1 || e.Attempt < 0 {
			return fmt.Errorf("ctrl: restore plane: queued job %d (org %d of %d, size %d, attempt %d) is not one the plane queues",
				i, e.Job.Org, p.stats.Orgs(), e.Job.Size, e.Attempt)
		}
		if e.Attempt > 0 {
			parked[e.Job.Org]++
		}
	}
	cp.Stats.Deferred = parked
	if err := cp.Stats.CheckConserved(); err != nil {
		return fmt.Errorf("ctrl: restore plane: %w", err)
	}
	if b, ok := p.policy.(*TokenBucket); ok {
		if err := b.restore(cp.Bucket, p.stats.Orgs()); err != nil {
			return err
		}
	} else if cp.Bucket != nil {
		return fmt.Errorf("ctrl: restore plane: token-bucket levels for a plane admitting by %q", p.policy.Name())
	}
	// Nothing decoded carries a push number, so position breaks the ties
	// of a stable sort: the list is held to verdict order as written.
	slices.SortStableFunc(events, compareVerdict)
	for i := range events {
		events[i].pushed = int64(i)
	}
	// Sorted is heap-ordered.
	p.q = verdictQueue{h: events, pushes: int64(len(events))}
	p.stats = cp.Stats
	return nil
}
