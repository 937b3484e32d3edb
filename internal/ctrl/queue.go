// Package ctrl is the cluster control plane: the layer that decides
// whether and where work enters the system, separated from the data
// plane that executes it. A released job takes one pass through it:
// it waits in one queue until its instant comes, the admission policy
// gives its verdict, and an admitted job is routed at once; a deferred
// one goes back into the queue for a strictly later instant. The queue
// is ordered by (instant, retries before arrivals, push order), so at
// an instant the jobs that have waited longest are decided first and
// the whole order is total. Admission is pluggable (AlwaysAdmit,
// per-org TokenBucket, queue-depth Backpressure) and every admission
// and routing decision acts on an explicitly aged View of system state
// obtained through a SnapshotProvider — the one staleness contract
// that also subsumes the federation's summary-gossip knob.
//
// The package is deliberately owner-agnostic: internal/fed gates
// routing with a Plane — a gated single cluster is a one-member
// federation — through deterministic, fully checkpointable machinery.
package ctrl

import (
	"cmp"

	"repro/internal/model"
)

// Job is the control plane's view of one unit of work: its identity
// (Seq, assigned by the owner), the submitting organization, the origin
// cluster (0 for an owner of one), its size, the release instant
// it arrived with, and Arrived — the instant it entered the control
// plane, from which decision latency is measured. Size is carried for
// feeding the executing side and for size-cost token buckets; routing
// policies never see it.
type Job struct {
	Seq     int64      `json:"seq"`
	Org     int        `json:"org"`
	Origin  int        `json:"origin,omitempty"`
	Size    model.Time `json:"size"`
	Release model.Time `json:"release"`
	Arrived model.Time `json:"arrived"`
}

// waiting is one job awaiting a verdict at instant At: an arrival not
// yet released (Attempt 0) or a deferred job parked on its Attempt-th
// retry. pushed is the queue's push counter — the last sort key, never
// serialized: a checkpoint lists the queue in verdict order and restore
// renumbers it by position.
type waiting struct {
	At      model.Time `json:"at"`
	Job     Job        `json:"job"`
	Attempt int        `json:"attempt,omitempty"`
	pushed  int64
}

// compareVerdict is the verdict order: by instant, then retries before
// arrivals — a retry parked for t was deferred before t, so it has
// waited longer than anything that arrives at t — then push order.
func compareVerdict(a, b waiting) int {
	return cmp.Or(
		cmp.Compare(a.At, b.At),
		cmp.Compare(min(b.Attempt, 1), min(a.Attempt, 1)),
		cmp.Compare(a.pushed, b.pushed),
	)
}

// verdictQueue is the plane's min-heap of waiting jobs in verdict
// order. The zero value is ready to use. It is a single-goroutine
// object, like the engines it fronts.
type verdictQueue struct {
	h      []waiting
	pushes int64
}

// push enqueues a job behind everything of its instant and class.
func (q *verdictQueue) push(w waiting) {
	w.pushed = q.pushes
	q.pushes++
	q.h = append(q.h, w)
	for i := len(q.h) - 1; i > 0; {
		parent := (i - 1) / 2
		if compareVerdict(q.h[i], q.h[parent]) >= 0 {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// pop removes and returns the next job to decide; the queue must not
// be empty.
func (q *verdictQueue) pop() waiting {
	top := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h = q.h[:n]
	for i := 0; ; {
		next := i
		if l := 2*i + 1; l < n && compareVerdict(q.h[l], q.h[next]) < 0 {
			next = l
		}
		if r := 2*i + 2; r < n && compareVerdict(q.h[r], q.h[next]) < 0 {
			next = r
		}
		if next == i {
			return top
		}
		q.h[i], q.h[next] = q.h[next], q.h[i]
		i = next
	}
}
