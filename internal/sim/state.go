package sim

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/utility"
)

// This file is the cluster's online/checkpoint surface: Inject adds
// jobs that were not known when the cluster was built, and
// CaptureState/RestoreState serialize the full simulation state so a
// run can stop, persist, and resume byte-identically. Both are used by
// internal/engine; batch runs never touch them.

// Inject registers a job that was appended to the instance after the
// cluster was built (an online arrival). The job must already be in
// inst.Jobs at index id, must belong to a member organization (non-
// member jobs are ignored, mirroring New), and must not be released in
// the cluster's past: its release becomes a future event exactly as if
// the job had been known from the start. A release equal to the current
// time is allowed — NextEventTime then fires at the current instant and
// the normal event path enqueues and dispatches it.
//
// A withdrawn job may be re-injected: it becomes a pending release
// again and rides the normal event path — NextEventTime clamps a
// by-now-past release to the current instant, so the job is
// re-enqueued (at its queue's tail, exactly where a job released "now"
// would land) and dispatched at the next event, whichever driver runs
// the cluster. This is the unqueue/requeue round-trip federated
// migration is built on.
func (c *Cluster) Inject(id int) error {
	if id < 0 || id >= len(c.inst.Jobs) {
		return fmt.Errorf("sim: inject: job %d not in instance", id)
	}
	j := c.inst.Jobs[id]
	if !c.coal.Has(j.Org) {
		return nil
	}
	if !c.unwithdraw(id) && j.Release < c.now {
		return fmt.Errorf("sim: inject: job %d released at %d, before current time %d", id, j.Release, c.now)
	}
	// Keep releaseOrder[nextRelease:] sorted by (Release, ID): the
	// pending suffix is scanned in order by releaseUpTo.
	pending := c.releaseOrder[c.nextRelease:]
	pos := sort.Search(len(pending), func(i int) bool {
		o := c.inst.Jobs[pending[i]]
		if o.Release != j.Release {
			return o.Release > j.Release
		}
		return o.ID > id
	})
	at := c.nextRelease + pos
	c.releaseOrder = append(c.releaseOrder, 0)
	copy(c.releaseOrder[at+1:], c.releaseOrder[at:])
	c.releaseOrder[at] = id
	return nil
}

// RunEntryState is the serializable form of one executing job.
type RunEntryState struct {
	End     model.Time `json:"end"`
	Machine int        `json:"machine"`
	Job     int        `json:"job"`
	Start   model.Time `json:"start"`
	AccFrom model.Time `json:"acc_from"`
}

// ClusterState is the complete serializable simulation state of one
// cluster. Together with the instance (organizations and the full job
// list including injected arrivals) and the policy/RNG state captured
// by the driver, it determines every future scheduling decision:
// restoring it into a freshly built cluster resumes the run
// byte-identically (queues, the running heap's array layout, free-list
// order and accrual bookkeeping are all preserved verbatim).
type ClusterState struct {
	Coalition     model.Coalition   `json:"coalition"`
	Now           model.Time        `json:"now"`
	FlushedAt     model.Time        `json:"flushed_at"`
	ReleaseOrder  []int             `json:"release_order"`
	NextRelease   int               `json:"next_release"`
	Queues        [][]int           `json:"queues"` // waiting job IDs per org, FIFO
	Free          []int             `json:"free"`
	Running       []RunEntryState   `json:"running"` // heap array order
	RunningPerOrg []int             `json:"running_per_org"`
	OrgAcct       []utility.Account `json:"org_acct"`
	OwnAcct       []utility.Account `json:"own_acct"`
	Total         utility.Account   `json:"total"`
	Starts        []Start           `json:"starts"`
	// Withdrawn lists jobs removed by Withdraw (and not re-injected),
	// in withdrawal order. Empty on clusters that never migrate, so the
	// serialized form of migration-free runs is unchanged.
	Withdrawn []int `json:"withdrawn,omitempty"`
}

// CaptureState snapshots the cluster's full simulation state. The
// cluster is not mutated, so concurrent captures of distinct clusters
// are safe.
func (c *Cluster) CaptureState() ClusterState {
	k := len(c.inst.Orgs)
	st := ClusterState{
		Coalition:     c.coal,
		Now:           c.now,
		FlushedAt:     c.flushedAt,
		ReleaseOrder:  append([]int(nil), c.releaseOrder...),
		NextRelease:   c.nextRelease,
		Queues:        make([][]int, k),
		Free:          append([]int(nil), c.free...),
		Running:       make([]RunEntryState, len(c.running)),
		RunningPerOrg: append([]int(nil), c.runningPerOrg...),
		OrgAcct:       append([]utility.Account(nil), c.orgAcct...),
		OwnAcct:       append([]utility.Account(nil), c.ownAcct...),
		Total:         c.total,
		Starts:        append([]Start(nil), c.starts...),
		Withdrawn:     append([]int(nil), c.withdrawn...),
	}
	for org := 0; org < k; org++ {
		st.Queues[org] = append([]int(nil), c.queues[org][c.qHead[org]:]...)
	}
	for i, r := range c.running {
		st.Running[i] = RunEntryState{End: r.end, Machine: r.machine, Job: r.job, Start: r.start, AccFrom: r.accFrom}
	}
	return st
}

// RestoreState overwrites the cluster's simulation state with a capture
// taken from an identically-configured cluster (same instance including
// injected jobs, same coalition, same policy kind). The policy's own
// state, if any, is restored separately by the driver.
func (c *Cluster) RestoreState(st ClusterState) error {
	k := len(c.inst.Orgs)
	if st.Coalition != c.coal {
		return fmt.Errorf("sim: restore: coalition %v into cluster of %v", st.Coalition, c.coal)
	}
	if len(st.Queues) != k || len(st.RunningPerOrg) != k || len(st.OrgAcct) != k || len(st.OwnAcct) != k {
		return fmt.Errorf("sim: restore: state sized for %d organizations, cluster has %d", len(st.Queues), k)
	}
	if got := len(st.Free) + len(st.Running); got != len(c.owners) {
		return fmt.Errorf("sim: restore: %d machines in state, cluster has %d", got, len(c.owners))
	}
	for _, id := range st.ReleaseOrder {
		if id < 0 || id >= len(c.inst.Jobs) {
			return fmt.Errorf("sim: restore: release order references unknown job %d", id)
		}
	}
	if st.NextRelease < 0 || st.NextRelease > len(st.ReleaseOrder) {
		return fmt.Errorf("sim: restore: next release index %d out of range", st.NextRelease)
	}
	for org, q := range st.Queues {
		for _, id := range q {
			if id < 0 || id >= len(c.inst.Jobs) {
				return fmt.Errorf("sim: restore: queue references unknown job %d", id)
			}
			if c.inst.Jobs[id].Org != org {
				return fmt.Errorf("sim: restore: job %d queued under organization %d, belongs to %d", id, org, c.inst.Jobs[id].Org)
			}
		}
	}
	// Every machine is listed exactly once, running or free (the counts
	// matched above): a stray index would otherwise surface as a panic
	// at the next dispatch.
	listed := make([]bool, len(c.owners))
	for _, r := range st.Running {
		if r.Job < 0 || r.Job >= len(c.inst.Jobs) {
			return fmt.Errorf("sim: restore: running entry references unknown job %d", r.Job)
		}
		if r.Machine < 0 || r.Machine >= len(c.owners) {
			return fmt.Errorf("sim: restore: running entry on unknown machine %d", r.Machine)
		}
		if listed[r.Machine] {
			return fmt.Errorf("sim: restore: machine %d runs two jobs", r.Machine)
		}
		if r.End <= st.Now {
			// The completion would be the next event, in the clock's past.
			return fmt.Errorf("sim: restore: job %d still running at %d ended at %d", r.Job, st.Now, r.End)
		}
		listed[r.Machine] = true
	}
	for _, m := range st.Free {
		if m < 0 || m >= len(c.owners) {
			return fmt.Errorf("sim: restore: free list references unknown machine %d", m)
		}
		if listed[m] {
			return fmt.Errorf("sim: restore: machine %d listed free more than once, or both free and running", m)
		}
		listed[m] = true
	}
	for _, s := range st.Starts {
		if s.Job < 0 || s.Job >= len(c.inst.Jobs) {
			return fmt.Errorf("sim: restore: decision log references unknown job %d", s.Job)
		}
	}
	for _, id := range st.Withdrawn {
		if id < 0 || id >= len(c.inst.Jobs) {
			return fmt.Errorf("sim: restore: withdrawn list references unknown job %d", id)
		}
		if !c.coal.Has(c.inst.Jobs[id].Org) {
			return fmt.Errorf("sim: restore: withdrawn job %d belongs to non-member organization %d", id, c.inst.Jobs[id].Org)
		}
	}
	c.now = st.Now
	c.flushedAt = st.FlushedAt
	c.releaseOrder = append([]int(nil), st.ReleaseOrder...)
	c.nextRelease = st.NextRelease
	c.totalWaiting = 0
	for org := 0; org < k; org++ {
		c.queues[org] = append([]int(nil), st.Queues[org]...)
		c.qHead[org] = 0
		c.totalWaiting += len(st.Queues[org])
	}
	c.free = append([]int(nil), st.Free...)
	c.running = make(runHeap, len(st.Running))
	for i, r := range st.Running {
		c.running[i] = runEntry{end: r.End, machine: r.Machine, job: r.Job, start: r.Start, accFrom: r.AccFrom}
	}
	copy(c.runningPerOrg, st.RunningPerOrg)
	copy(c.orgAcct, st.OrgAcct)
	copy(c.ownAcct, st.OwnAcct)
	c.total = st.Total
	c.starts = append([]Start(nil), st.Starts...)
	c.withdrawn = append([]int(nil), st.Withdrawn...)
	return nil
}
