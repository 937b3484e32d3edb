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

// RunEntryState is one executing job, in the completion heap and in a
// capture. AccFrom is the start of its not-yet-accounted execution
// window; Start places the remainder slot on fast machines.
type RunEntryState struct {
	End     model.Time `json:"end"`
	Machine int        `json:"machine"`
	Job     int        `json:"job"`
	Start   model.Time `json:"start"`
	AccFrom model.Time `json:"acc_from"`
}

// ClusterState is the serializable simulation state of one cluster:
// what no replay of its other fields reproduces. Together with the
// instance (organizations and the full job list including injected
// arrivals) and the policy/RNG state captured by the driver, it
// determines every future scheduling decision: restoring it into a
// freshly built cluster resumes the run byte-identically. Free
// machines, per-organization running counts, total account and flush
// mark are functions of these fields, recomputed by RestoreState.
type ClusterState struct {
	Coalition    model.Coalition   `json:"coalition"`
	Now          model.Time        `json:"now"`
	ReleaseOrder []int             `json:"release_order"` // pending releases, by (Release, ID)
	Queues       [][]int           `json:"queues"`        // waiting job IDs per org, FIFO
	Running      []RunEntryState   `json:"running"`       // heap array order
	OrgAcct      []utility.Account `json:"org_acct"`
	OwnAcct      []utility.Account `json:"own_acct"`
	// Starts is the decision log; absent after DiscardStarts.
	Starts []Start `json:"starts,omitempty"`
	// Withdrawn lists jobs removed by Withdraw (and not re-injected),
	// in withdrawal order. Empty on clusters that never migrate.
	Withdrawn []int `json:"withdrawn,omitempty"`
	// NextRelease is read, never written: a version-1 document's release
	// order still began with the releases that had fired, this many.
	NextRelease int `json:"next_release,omitempty"`
}

// CaptureState snapshots the cluster's simulation state. The cluster is
// not mutated, so concurrent captures of distinct clusters are safe.
func (c *Cluster) CaptureState() ClusterState {
	st := ClusterState{
		Coalition:    c.coal,
		Now:          c.now,
		ReleaseOrder: append([]int(nil), c.releaseOrder[c.nextRelease:]...),
		Queues:       make([][]int, len(c.queues)),
		Running:      append([]RunEntryState{}, c.running...),
		OrgAcct:      append([]utility.Account(nil), c.orgAcct...),
		OwnAcct:      append([]utility.Account(nil), c.ownAcct...),
		Starts:       append([]Start(nil), c.starts...),
		Withdrawn:    append([]int(nil), c.withdrawn...),
	}
	for org, q := range c.queues {
		st.Queues[org] = append([]int(nil), q[c.qHead[org]:]...)
	}
	return st
}

// RestoreState overwrites the cluster's simulation state with a capture
// taken from an identically-configured cluster (same instance including
// injected jobs, same coalition, same policy kind). The policy's own
// state, if any, is restored separately by the driver. A capture is
// outside input: it is refused unless every member job is in exactly
// one place — pending, queued, withdrawn or started — and every running
// entry is the execution its job, machine and start time imply.
func (c *Cluster) RestoreState(st ClusterState) error {
	k, jobs := len(c.inst.Orgs), c.inst.Jobs
	if st.Coalition != c.coal {
		return fmt.Errorf("sim: restore: coalition %v into cluster of %v", st.Coalition, c.coal)
	}
	if len(st.Queues) != k || len(st.OrgAcct) != k || len(st.OwnAcct) != k {
		return fmt.Errorf("sim: restore: state sized for %d organizations, cluster has %d", len(st.Queues), k)
	}
	if st.NextRelease < 0 || st.NextRelease > len(st.ReleaseOrder) {
		return fmt.Errorf("sim: restore: next release index %d out of range", st.NextRelease)
	}
	pending := st.ReleaseOrder[st.NextRelease:]
	// listed[id]: 0 in no list yet, n+1 on the decision log's line n, -1
	// in another list — or running, once its entry has been seen.
	listed := make([]int32, len(jobs))
	list := func(where string, id int) error {
		switch {
		case id < 0 || id >= len(jobs):
			return fmt.Errorf("sim: restore: %s references unknown job %d", where, id)
		case !c.coal.Has(jobs[id].Org):
			return fmt.Errorf("sim: restore: %s holds job %d of non-member organization %d", where, id, jobs[id].Org)
		case listed[id] != 0:
			return fmt.Errorf("sim: restore: job %d is in the %s and in another list, or twice", id, where)
		}
		listed[id] = -1
		return nil
	}
	// What runs was started: the decision log lists it, or — where none
	// is kept, and an old document's is dropped — nothing else does.
	if c.noStarts {
		st.Starts = nil
	}
	for i, s := range st.Starts {
		if err := list("decision log", s.Job); err != nil {
			return err
		}
		// A line is read back by /decisions and the federation's log: on a
		// pool machine, after the release, in the order starts were made.
		if s.Machine < 0 || s.Machine >= len(c.owners) || s.At < jobs[s.Job].Release || s.At > st.Now || (i > 0 && s.At < st.Starts[i-1].At) {
			return fmt.Errorf("sim: restore: decision log line %d starts job %d on machine %d at %d, outside the pool, [release, now] or the log's order", i, s.Job, s.Machine, s.At)
		}
		listed[s.Job] = int32(i + 1)
	}
	busy := make([]bool, len(c.owners))
	for i, r := range st.Running {
		if c.noStarts {
			if err := list("running entries", r.Job); err != nil {
				return err
			}
		} else if r.Job < 0 || r.Job >= len(jobs) || listed[r.Job] <= 0 {
			return fmt.Errorf("sim: restore: running job %d is not in the decision log, or runs twice", r.Job)
		} else if s := st.Starts[listed[r.Job]-1]; s.Machine != r.Machine || s.At != r.Start {
			return fmt.Errorf("sim: restore: job %d runs on machine %d since %d, its log line says machine %d at %d", r.Job, r.Machine, r.Start, s.Machine, s.At)
		}
		if r.Machine < 0 || r.Machine >= len(c.owners) || busy[r.Machine] {
			return fmt.Errorf("sim: restore: job %d runs on machine %d, unknown or taken", r.Job, r.Machine)
		}
		// The window its start implies, open at the clock (a past
		// completion would be the next event), accounted from inside it.
		q := model.Time(c.speeds[r.Machine])
		if r.End != r.Start+(jobs[r.Job].Size+q-1)/q || r.End <= st.Now || r.AccFrom < r.Start || r.AccFrom > st.Now {
			return fmt.Errorf("sim: restore: job %d runs over [%d,%d), accounted to %d, at time %d", r.Job, r.Start, r.End, r.AccFrom, st.Now)
		}
		if i > 0 && runHeap(st.Running).less(i, (i-1)/2) {
			return fmt.Errorf("sim: restore: running entry %d is out of completion-heap order", i)
		}
		busy[r.Machine], listed[r.Job] = true, -1
	}
	for _, id := range pending {
		if err := list("release order", id); err != nil {
			return err
		}
	}
	for org, q := range st.Queues {
		for _, id := range q {
			if err := list("queues", id); err != nil {
				return err
			}
			if jobs[id].Org != org {
				return fmt.Errorf("sim: restore: job %d queued under organization %d, belongs to %d", id, org, jobs[id].Org)
			}
		}
	}
	for _, id := range st.Withdrawn {
		if err := list("withdrawn list", id); err != nil {
			return err
		}
	}
	for id, j := range jobs {
		if !c.noStarts && listed[id] == 0 && c.coal.Has(j.Org) {
			return fmt.Errorf("sim: restore: job %d is neither started, pending, queued nor withdrawn", id)
		}
	}

	c.now = st.Now
	// Unflushed: the first value query folds the running windows, a
	// no-op where the capturing cluster had already done so.
	c.flushedAt = st.Now - 1
	c.releaseOrder = append(c.releaseOrder[:0], pending...)
	c.nextRelease = 0
	c.totalWaiting = 0
	for org, q := range st.Queues {
		c.queues[org] = append([]int(nil), q...)
		c.qHead[org] = 0
		c.totalWaiting += len(q)
	}
	c.running = append(runHeap(nil), st.Running...)
	clear(c.runningPerOrg)
	for _, r := range st.Running {
		c.runningPerOrg[jobs[r.Job].Org]++
	}
	c.free = c.free[:0]
	for m, b := range busy {
		if !b {
			c.free = append(c.free, m)
		}
	}
	copy(c.orgAcct, st.OrgAcct)
	copy(c.ownAcct, st.OwnAcct)
	c.total = utility.Account{}
	for _, a := range st.OrgAcct {
		c.total.Add(a)
	}
	c.starts = append([]Start(nil), st.Starts...)
	for i := range c.starts {
		c.starts[i].Org = jobs[c.starts[i].Job].Org // a capture does not carry it
	}
	c.withdrawn = append([]int(nil), st.Withdrawn...)
	return nil
}
