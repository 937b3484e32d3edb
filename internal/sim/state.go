package sim

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/utility"
)

// This file is the cluster's online/checkpoint surface: Inject adds
// jobs that were not known when the cluster was built, and
// CaptureState/RestoreState serialize the full simulation state so a
// run can stop, persist, and resume byte-identically. Both are used by
// internal/engine; batch runs never touch them.

// Inject registers jobs that were appended to the instance after the
// cluster was built (online arrivals): Queues.Inject on the queues it
// schedules from — on shared queues, for every cluster on them. Jobs of
// non-member organizations are ignored, mirroring New, on queues of its
// own; a member's must not be released in the cluster's past: its
// release becomes a future event exactly as if the job had been known
// from the start. A release equal to the current time is allowed —
// NextEventTime then fires at the current instant and the normal event
// path enqueues and dispatches it. A job that has entered before —
// pending, queued, started or withdrawn — is refused: work that moves
// elsewhere enters there as a new job. An error leaves the cluster as it
// was.
func (c *Cluster) Inject(ids ...int) error { return c.q.Inject(ids...) }

// RunEntryState is one executing job in a capture. End, the completion
// its job, machine and start imply, is not written.
type RunEntryState struct {
	Job     int        `json:"job"`
	Machine int        `json:"machine"`
	Start   model.Time `json:"start"`
	// Folded is read, never written: a document of version 1 to 3 had
	// already added the window [Start, Folded) to its accounts.
	Folded *model.Time `json:"acc_from,omitempty"`
}

// ClusterState is the serializable simulation state of one cluster:
// what no replay of its other fields reproduces. Together with the
// instance (organizations and the full job list including injected
// arrivals) and the policy/RNG state captured by the driver, it
// determines every future scheduling decision: restoring it into a
// freshly built cluster resumes the run byte-identically. Free
// machines, per-organization running counts and the total account are
// functions of these fields, recomputed by RestoreState; on a cluster
// that keeps a decision log so are the running entries and the
// accounts, which its capture leaves out.
type ClusterState struct {
	Coalition    model.Coalition `json:"coalition"`
	Now          model.Time      `json:"now"`
	ReleaseOrder []int           `json:"release_order"`     // pending releases, by (Release, ID)
	Queues       [][]int         `json:"queues"`            // waiting job IDs per org, FIFO
	Running      []RunEntryState `json:"running,omitempty"` // heap array order
	// Finished work, per job owner and per machine owner.
	OrgAcct []utility.Account `json:"org_acct,omitempty"`
	OwnAcct []utility.Account `json:"own_acct,omitempty"`
	// Starts is the decision log; absent after DiscardStarts.
	Starts []Start `json:"starts,omitempty"`
	// Withdrawn lists jobs removed by Withdraw, in withdrawal order.
	// Empty on clusters that never migrate.
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
		ReleaseOrder: c.q.pending(c.coal),
		Queues:       make([][]int, len(c.cursor)),
		Starts:       append([]Start(nil), c.starts...),
		Withdrawn:    append([]int(nil), c.withdrawn...),
	}
	for org := range st.Queues {
		if c.coal.Has(org) {
			st.Queues[org] = append([]int(nil), c.q.window(org, c.cursor[org])...)
		}
	}
	if c.noStarts {
		for _, r := range c.running {
			st.Running = append(st.Running, RunEntryState{Job: int(r.Job), Machine: int(r.Machine), Start: r.Start})
		}
		for i := range c.orgAcct {
			st.OrgAcct = append(st.OrgAcct, c.orgAcct[i].Account)
			st.OwnAcct = append(st.OwnAcct, c.ownAcct[i].Account)
		}
	}
	return st
}

// RestoreState overwrites the cluster's simulation state with a capture
// taken from an identically-configured cluster (same instance including
// injected jobs, same coalition, same policy kind). The policy's own
// state, if any, is restored separately by the driver. A capture is
// outside input: it is refused unless every member job is in exactly
// one place — pending, queued, withdrawn or started — each
// organization's jobs are by release as queues keep them, no pending
// release precedes the clock, no machine runs two jobs at once and none
// idles while a job waits.
//
// A cluster on queues of its own rebuilds them from the capture. On
// shared queues the decision schedule — the cluster that keeps a
// decision log, whose coalition spans the queues — does, and is restored
// first; every other cluster's queued and pending jobs must then be its
// window of them (Queues.checkWindow).
//
// On a cluster that keeps a decision log, each line's job, machine and
// start give its window: the lines that ended by the clock are its
// finished work, the rest its running entries, and the stored copies of
// both are not read. A cluster without one reads them; an entry's
// legacy fold mark says which part of its window the stored accounts
// already hold.
func (c *Cluster) RestoreState(st ClusterState) error {
	k, jobs := len(c.inst.Orgs), c.inst.Jobs
	if st.Coalition != c.coal {
		return fmt.Errorf("sim: restore: coalition %v into cluster of %v", st.Coalition, c.coal)
	}
	if len(st.Queues) != k || (c.noStarts && (len(st.OrgAcct) != k || len(st.OwnAcct) != k)) {
		return fmt.Errorf("sim: restore: state sized for %d organizations, cluster has %d", len(st.Queues), k)
	}
	if st.NextRelease < 0 || st.NextRelease > len(st.ReleaseOrder) {
		return fmt.Errorf("sim: restore: next release index %d out of range", st.NextRelease)
	}
	pending := st.ReleaseOrder[st.NextRelease:]
	listed := make([]bool, len(jobs))
	list := func(where string, id int) error {
		switch {
		case id < 0 || id >= len(jobs):
			return fmt.Errorf("sim: restore: %s references unknown job %d", where, id)
		case !c.coal.Has(jobs[id].Org):
			return fmt.Errorf("sim: restore: %s holds job %d of non-member organization %d", where, id, jobs[id].Org)
		case listed[id]:
			return fmt.Errorf("sim: restore: job %d is in the %s and in another list, or twice", id, where)
		}
		listed[id] = true
		return nil
	}
	// What runs: on a cluster with a decision log, the lines still open at
	// the clock (the rest are finished work); elsewhere the stored entries.
	var running []RunEntryState
	var finished []runEntry
	if c.noStarts {
		st.Starts = nil // an old document's is dropped
		running = st.Running
	} else {
		freeAt := make([]model.Time, len(c.owners)) // machine -> end of its last logged job
		for i, s := range st.Starts {
			if err := list("decision log", s.Job); err != nil {
				return err
			}
			// A line is read back by /decisions and the federation's log: on a
			// pool machine, after the release and the machine's previous job,
			// by the clock, in the order starts were made.
			if s.Machine < 0 || s.Machine >= len(c.owners) || s.At < jobs[s.Job].Release || s.At < freeAt[s.Machine] || s.At > st.Now || (i > 0 && s.At < st.Starts[i-1].At) {
				return fmt.Errorf("sim: restore: decision log line %d starts job %d on machine %d at %d, outside the pool, [release, now], the machine's idle time or the log's order", i, s.Job, s.Machine, s.At)
			}
			r := c.entry(s.Job, s.Machine, s.At)
			freeAt[s.Machine] = r.End
			if r.End <= st.Now {
				finished = append(finished, r)
			} else {
				running = append(running, RunEntryState{Job: s.Job, Machine: s.Machine, Start: s.At})
			}
		}
	}
	busy := make([]bool, len(c.owners))
	entries := make([]runEntry, len(running))
	for i, r := range running {
		if c.noStarts {
			if err := list("running entries", r.Job); err != nil {
				return err
			}
		}
		if r.Machine < 0 || r.Machine >= len(c.owners) || busy[r.Machine] {
			return fmt.Errorf("sim: restore: job %d runs on machine %d, unknown or taken", r.Job, r.Machine)
		}
		// The window its start implies, open at the clock (a past
		// completion would be the next event), folded to inside it.
		entries[i] = c.entry(r.Job, r.Machine, r.Start)
		if end := entries[i].End; r.Start > st.Now || end <= st.Now || (r.Folded != nil && (*r.Folded < r.Start || *r.Folded > st.Now)) {
			return fmt.Errorf("sim: restore: job %d runs over [%d,%d) at time %d, or its window was folded outside it", r.Job, r.Start, end, st.Now)
		}
		if c.noStarts && i > 0 && runHeap(entries).less(i, (i-1)/2) {
			return fmt.Errorf("sim: restore: running entry %d is out of completion-heap order", i)
		}
		busy[r.Machine] = true
	}
	for _, id := range pending {
		if err := list("release order", id); err != nil {
			return err
		}
		if jobs[id].Release < st.Now {
			return fmt.Errorf("sim: restore: job %d is pending release at %d, before the clock %d", id, jobs[id].Release, st.Now)
		}
	}
	waiting := 0
	for org, q := range st.Queues {
		for _, id := range q {
			if err := list("queues", id); err != nil {
				return err
			}
			if jobs[id].Org != org {
				return fmt.Errorf("sim: restore: job %d queued under organization %d, belongs to %d", id, org, jobs[id].Org)
			}
		}
		waiting += len(q)
	}
	// Dispatch leaves no machine idle while a job waits.
	if waiting > 0 && len(running) < len(c.owners) {
		return fmt.Errorf("sim: restore: %d jobs wait while %d of %d machines idle", waiting, len(c.owners)-len(running), len(c.owners))
	}
	for _, id := range st.Withdrawn {
		if err := list("withdrawn list", id); err != nil {
			return err
		}
	}
	for id, j := range jobs {
		if !c.noStarts && !listed[id] && c.coal.Has(j.Org) {
			return fmt.Errorf("sim: restore: job %d is neither started, pending, queued nor withdrawn", id)
		}
	}
	// Queues keep an organization's jobs by release: the released ones in
	// the order they were, the pending ones by (Release, ID) after them.
	for org, q := range st.Queues {
		for i := 1; i < len(q); i++ {
			if jobs[q[i]].Release < jobs[q[i-1]].Release {
				return fmt.Errorf("sim: restore: organization %d's queue is out of release order at job %d", org, q[i])
			}
		}
	}
	for i, id := range pending {
		if i > 0 && !releaseLess(jobs, pending[i-1], id) {
			return fmt.Errorf("sim: restore: release order out of (release, ID) order at job %d", id)
		}
		if q := st.Queues[jobs[id].Org]; len(q) > 0 && jobs[q[len(q)-1]].Release > jobs[id].Release {
			return fmt.Errorf("sim: restore: job %d is pending release before queued job %d's", id, q[len(q)-1])
		}
	}
	rebuild := c.private || !c.noStarts
	switch {
	case rebuild && c.coal != c.q.orgs:
		return fmt.Errorf("sim: restore: the decision schedule of shared queues is of %v, they serve %v", c.coal, c.q.orgs)
	case !rebuild:
		if err := c.q.checkWindow(c.coal, st.Queues, pending); err != nil {
			return err
		}
	}

	c.now = st.Now
	if rebuild {
		c.q.reset(st.Now, st.Queues, pending, st.Withdrawn)
	}
	c.q.place(c, st.Queues, st.Now)
	c.total = ValuePoly{}
	for org := range c.orgAcct {
		c.orgAcct[org], c.ownAcct[org] = ValuePoly{}, ValuePoly{}
		if c.noStarts {
			c.orgAcct[org].Account, c.ownAcct[org].Account = st.OrgAcct[org], st.OwnAcct[org]
			c.total.Add(st.OrgAcct[org])
		}
	}
	for _, r := range finished {
		c.start(r)
		c.finish(r)
	}
	c.running = c.running[:0]
	clear(c.runningPerOrg)
	for i, r := range entries {
		if folded := running[i].Folded; folded != nil {
			var w utility.Account
			w.AddScaledWindow(r.Start, jobs[r.Job].Size, c.speeds[r.Machine], r.Start, *folded)
			for _, a := range c.accounts(jobs[r.Job].Org, int(r.Machine)) {
				a.U, a.S = a.U-w.U, a.S-w.S
			}
		}
		c.running.push(r)
		c.start(r)
		c.runningPerOrg[jobs[r.Job].Org]++
	}
	c.free = c.free[:0]
	for m, b := range busy {
		if !b {
			c.free = append(c.free, m)
		}
	}
	c.starts = append([]Start(nil), st.Starts...)
	for i := range c.starts {
		c.starts[i].Org = jobs[c.starts[i].Job].Org // a capture does not carry it
	}
	c.withdrawn = append([]int(nil), st.Withdrawn...)
	return nil
}
