package sim

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/model"
	"repro/internal/utility"
)

// This file is the cluster's online/checkpoint surface: Inject adds
// jobs that were not known when the cluster was built, and
// CaptureState/RestoreState serialize the full simulation state so a
// run can stop, persist, and resume byte-identically. Both are used by
// internal/engine; batch runs never touch them.

// Inject registers jobs that were appended to the instance after the
// cluster was built (online arrivals): Queues.Inject, which says what is
// refused, on the queues it schedules from, for every cluster on them. A
// non-member's job enters too; this cluster never starts it. An error
// leaves the cluster as it was.
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
// accounts, which its capture leaves out. A cluster that keeps a
// decision log writes the queues it rebuilds; one that does not (see
// RestoreState) writes waiting counts instead, and no withdrawn list.
//
// On machines of one speed, a hypothetical schedule that is its members'
// release-start schedule at its clock — nothing waits, and it runs
// exactly their jobs released by then that are still running had each
// started at its release — is written compactly: AtRelease, and in
// OrgAcct its finished work less the release-start schedule's, left out
// when that is zero for every member. The job list implies the rest
// (Queues.releaseStartOf).
type ClusterState struct {
	Coalition   model.Coalition `json:"coalition"`
	Now         model.Time      `json:"now"`
	AtRelease   bool            `json:"at_release,omitempty"`
	*QueueState                 // nil on a hypothetical schedule
	// Per member in index order: how many released jobs wait here, the
	// last of the shared queue's; and the finished work (up to version 4
	// per organization).
	Waiting []int             `json:"waiting,omitempty"`
	Running []RunEntryState   `json:"running,omitempty"` // heap array order; by (end, job) on machines 0, 1, … where all share one speed
	OrgAcct []utility.Account `json:"org_acct,omitempty"`
	Starts  []Start           `json:"starts,omitempty"` // the decision log; absent after DiscardStarts
	// Withdrawn lists jobs removed by Withdraw, in withdrawal order, where
	// the queues are written. Empty on clusters that never migrate.
	Withdrawn []int `json:"withdrawn,omitempty"`
}

// QueueState is the job lists a cluster rebuilds its queues from.
type QueueState struct {
	ReleaseOrder []int   `json:"release_order"` // pending releases, by (Release, ID)
	Queues       [][]int `json:"queues"`        // waiting job IDs per org, FIFO
	// NextRelease is read, never written: a version-1 document's release
	// order still began with the releases that had fired, this many.
	NextRelease int `json:"next_release,omitempty"`
}

// byEndJob orders executions by (end, job), as a capture on machines of
// one speed writes them.
func byEndJob(a, b runEntry) int { return cmp.Or(cmp.Compare(a.End, b.End), cmp.Compare(a.Job, b.Job)) }

// CaptureState snapshots the cluster's simulation state. The cluster is
// not mutated — one in free flow folds its queues' release-start ledger
// up to its clock, which changes no value — so concurrent captures of
// clusters on distinct queues are safe.
func (c *Cluster) CaptureState() ClusterState {
	st := ClusterState{
		Coalition: c.coal,
		Now:       c.now,
		Starts:    append([]Start(nil), c.starts...),
		Withdrawn: append([]int(nil), c.withdrawn...),
	}
	if !c.noStarts {
		st.QueueState = &QueueState{ReleaseOrder: c.q.pendingOf(c.coal), Queues: make([][]int, len(c.cursor))}
		for org := range st.Queues {
			if c.coal.Has(org) {
				st.Queues[org] = append([]int(nil), c.q.window(org, c.cursor[org])...)
			}
		}
	}
	if c.noStarts {
		running, f := c.running, c.q.starts
		if c.flow {
			f.fold(c.inst.Jobs, c.now)
			st.Now = f.now
			running = nil
			for _, r := range f.heap {
				if c.coal.Has(c.inst.Jobs[r.Job].Org) {
					running = append(running, r)
				}
			}
		}
		if c.q.speed > 0 {
			// On machines of one speed which machine runs a job changes
			// nothing a hypothetical schedule will do, and a schedule in
			// free flow has no machines of its own: the entries are
			// written by (end, job) on machines 0, 1, 2, …, whatever the
			// mode of the set and the path the schedule took.
			running = slices.Clone(running)
			slices.SortFunc(running, byEndJob)
			for i := range running {
				running[i].Machine = int32(i)
			}
		}
		for _, r := range running {
			st.Running = append(st.Running, RunEntryState{Job: int(r.Job), Machine: int(r.Machine), Start: r.Start})
		}
		// In free flow nothing waits, and a member's account is the offset
		// plus its ledger account.
		for _, u := range c.coal.Members() {
			a, waiting := c.orgAcct[u].Account, 0
			if c.flow {
				a.Add(f.acct[u].Account)
			} else {
				waiting = c.waiting(u)
			}
			st.OrgAcct = append(st.OrgAcct, a)
			st.Waiting = append(st.Waiting, waiting)
		}
		if c.q.speed > 0 {
			c.q.compact(&st)
		}
	}
	return st
}

// compact rewrites st, a hypothetical schedule's capture on machines of
// one speed, in its compact form (ClusterState.AtRelease) when the job
// list reproduces it exactly: nothing waits, and its running entries are
// the release-start ones. Whatever path the schedule took — free flow,
// eager stepping, a restore — the same state writes the same bytes.
func (q *Queues) compact(st *ClusterState) {
	for _, w := range st.Waiting {
		if w != 0 {
			return
		}
	}
	running, done := q.releaseStartOf(st.Coalition, st.Now)
	if !slices.Equal(running, st.Running) {
		return
	}
	zero := true
	for i, a := range st.OrgAcct {
		done[i] = utility.Account{U: a.U - done[i].U, S: a.S - done[i].S}
		zero = zero && done[i] == utility.Account{}
	}
	st.AtRelease, st.Waiting, st.Running, st.OrgAcct = true, nil, nil, done
	if zero {
		st.OrgAcct = nil
	}
}

// expand rewrites st, a compact capture, as the state it stands for:
// its members' release-start schedule at its clock, nothing waiting, the
// stored offset added to the release-start finished work. A compact
// state is refused where no capture writes one — on the decision
// schedule, on machines of more than one speed, next to queues, waiting
// counts, running entries, a decision log or a withdrawn list — and
// where it would run more jobs than its pool has machines or leave a
// member negative finished work.
func (c *Cluster) expand(st *ClusterState) error {
	members := c.coal.Members()
	switch {
	case !c.noStarts:
		return fmt.Errorf("sim: restore: the decision schedule of %v is written as a release-start schedule", c.coal)
	case c.q.speed == 0:
		return fmt.Errorf("sim: restore: a release-start schedule of %v on machines of more than one speed", c.coal)
	case st.QueueState != nil || st.Waiting != nil || st.Running != nil || st.Starts != nil || st.Withdrawn != nil:
		return fmt.Errorf("sim: restore: a release-start schedule of %v carries queues, waiting counts, running entries, a decision log or a withdrawn list", c.coal)
	case st.OrgAcct != nil && len(st.OrgAcct) != len(members):
		return fmt.Errorf("sim: restore: %d finished-work offsets for %d members", len(st.OrgAcct), len(members))
	}
	running, done := c.q.releaseStartOf(c.coal, st.Now)
	if len(running) > len(c.owners) {
		return fmt.Errorf("sim: restore: the release-start schedule of %v runs %d jobs at %d on %d machines", c.coal, len(running), st.Now, len(c.owners))
	}
	for i, a := range st.OrgAcct {
		done[i].U += a.U
		done[i].S += a.S
		if done[i].U < 0 || done[i].S < 0 {
			return fmt.Errorf("sim: restore: organization %d's finished work offset leaves %+v", members[i], done[i])
		}
	}
	st.AtRelease, st.Waiting, st.Running, st.OrgAcct = false, make([]int, len(members)), running, done
	return nil
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
// The decision schedule — the cluster that keeps a decision log, whose
// coalition must span the queues — rebuilds them from the capture, and
// is restored first: an organization's released jobs are the ones its
// log started, then its queued ones. Every other cluster waits for the last of those,
// as many as its count says; an older document's queues and pending list
// must be that window (Queues.checkWindow), its withdrawn list is not
// read and its non-members' accounts must be empty.
//
// On a cluster that keeps a decision log, each line's job, machine and
// start give its window: the lines that ended by the clock are its
// finished work, the rest its running entries. A cluster without one
// reads them; a legacy fold mark says which part of an entry's window
// the stored accounts already hold. A compact state (AtRelease) is
// expanded to the full one first, and that is held to the same rule.
func (c *Cluster) RestoreState(st ClusterState) error {
	if st.AtRelease {
		if err := c.expand(&st); err != nil {
			return err
		}
	}
	k, jobs, members := len(c.inst.Orgs), c.inst.Jobs, c.coal.Members()
	rebuild, qs, acct := !c.noStarts, st.QueueState, st.OrgAcct
	switch {
	case st.Coalition != c.coal:
		return fmt.Errorf("sim: restore: coalition %v into cluster of %v", st.Coalition, c.coal)
	case qs == nil && (rebuild || len(st.Waiting) != len(members)):
		return fmt.Errorf("sim: restore: no queues, and %d waiting counts for %d members of a schedule that does not rebuild them", len(st.Waiting), len(members))
	case qs == nil:
		qs = &QueueState{}
	case len(qs.Queues) != k:
		return fmt.Errorf("sim: restore: state sized for %d organizations, cluster has %d", len(qs.Queues), k)
	case qs.NextRelease < 0 || qs.NextRelease > len(qs.ReleaseOrder):
		return fmt.Errorf("sim: restore: next release index %d out of range", qs.NextRelease)
	}
	if c.noStarts && len(acct) == k && len(members) < k {
		acct = nil // an older document's lists every organization
		for org, a := range st.OrgAcct {
			if c.coal.Has(org) {
				acct = append(acct, a)
			} else if a != (utility.Account{}) {
				return fmt.Errorf("sim: restore: non-member organization %d has finished work here", org)
			}
		}
	}
	if c.noStarts && len(acct) != len(members) {
		return fmt.Errorf("sim: restore: %d accounts for %d members", len(acct), len(members))
	}
	if st.QueueState != nil {
		st.Waiting = nil
		for _, u := range members {
			st.Waiting = append(st.Waiting, len(qs.Queues[u]))
		}
	}
	pending := qs.ReleaseOrder[qs.NextRelease:]
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
	// Where the cluster rebuilds the queues, each organization's released
	// jobs by release: the ones its log started, then the queued ones, and
	// its pending ones by (Release, ID) after them. (An older document's
	// window of them is checked whole.)
	var lists [][]int
	if rebuild {
		if grand := c.inst.Grand(); c.coal != grand {
			return fmt.Errorf("sim: restore: the decision schedule of the queues is of %v, they serve %v", c.coal, grand)
		}
		lists = make([][]int, k)
		for _, s := range st.Starts {
			lists[jobs[s.Job].Org] = append(lists[jobs[s.Job].Org], s.Job)
		}
		for org, q := range qs.Queues {
			for _, id := range q {
				if err := list("queues", id); err != nil {
					return err
				}
				if jobs[id].Org != org {
					return fmt.Errorf("sim: restore: job %d queued under organization %d, belongs to %d", id, org, jobs[id].Org)
				}
			}
			lists[org] = append(lists[org], q...)
			for i := 1; i < len(lists[org]); i++ {
				if jobs[lists[org][i]].Release < jobs[lists[org][i-1]].Release {
					return fmt.Errorf("sim: restore: organization %d's jobs are started or queued out of release order at job %d", org, lists[org][i])
				}
			}
		}
		for i, id := range pending {
			if err := list("release order", id); err != nil {
				return err
			}
			if l := lists[jobs[id].Org]; jobs[id].Release < st.Now || i > 0 && !releaseLess(jobs, pending[i-1], id) || len(l) > 0 && jobs[l[len(l)-1]].Release > jobs[id].Release {
				return fmt.Errorf("sim: restore: job %d is pending release at %d: before the clock %d, out of (release, ID) order, or before a released job of its organization", id, jobs[id].Release, st.Now)
			}
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
	} else if st.QueueState != nil {
		if err := c.q.checkWindow(c.coal, qs.Queues, pending); err != nil {
			return err
		}
	}
	// Each member's cursor, from the start of its released jobs: before
	// the last ones, as many as wait here.
	cursor, waiting := make([]int, k), 0
	for i, u := range members {
		released, w := len(c.q.lists[u]), st.Waiting[i]
		if rebuild {
			released = len(lists[u])
		}
		if w < 0 || w > released {
			return fmt.Errorf("sim: restore: %d of organization %d's jobs wait, %d are released", w, u, released)
		}
		cursor[u], waiting = released-w, waiting+w
	}
	// Any pending release, not only a member's: the set releases the
	// queues through every instant it steps a slot to, so no valid
	// capture has one before its clock.
	if next := c.q.NextRelease(); !rebuild && next < st.Now {
		return fmt.Errorf("sim: restore: a job is pending release at %d, before the clock %d", next, st.Now)
	}
	busy := make([]bool, len(c.owners))
	entries := make([]runEntry, len(running))
	for i, r := range running {
		if c.noStarts {
			if err := list("running entries", r.Job); err != nil {
				return err
			}
		}
		// A schedule does not run a job it has yet to start.
		if u := jobs[r.Job].Org; !rebuild {
			if pos, ok := c.q.find(u, r.Job); ok && pos >= c.q.base[u]+cursor[u] {
				return fmt.Errorf("sim: restore: job %d runs, and waits or is pending", r.Job)
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
		if c.noStarts && i > 0 && entries[i].before(&entries[(i-1)/2]) {
			return fmt.Errorf("sim: restore: running entry %d is out of completion-heap order", i)
		}
		busy[r.Machine] = true
	}
	// Dispatch leaves no machine idle while a job waits.
	if waiting > 0 && len(running) < len(c.owners) {
		return fmt.Errorf("sim: restore: %d jobs wait while %d of %d machines idle", waiting, len(c.owners)-len(running), len(c.owners))
	}

	c.now, c.withdrawn, c.flow = st.Now, nil, false
	if rebuild {
		c.q.reset(st.Now, lists, pending, st.Withdrawn)
		c.withdrawn = append(c.withdrawn, st.Withdrawn...)
	}
	for _, u := range members {
		c.cursor[u] = c.q.base[u] + cursor[u]
	}
	c.q.now = max(c.q.now, st.Now)
	clear(c.orgAcct)
	clear(c.ownAcct)
	c.total = ValuePoly{}
	if c.noStarts {
		for i, a := range acct {
			c.orgAcct[members[i]].Account = a
			c.total.Add(a)
		}
	}
	for _, r := range finished {
		j := jobs[r.Job]
		c.start(r, j.Org)
		c.finish(r, j)
	}
	c.running = c.running[:0]
	clear(c.runningPerOrg)
	for i, r := range entries {
		if folded := running[i].Folded; folded != nil {
			var w utility.Account
			w.AddScaledWindow(r.Start, jobs[r.Job].Size, c.speeds[r.Machine], r.Start, *folded)
			for _, a := range []*ValuePoly{&c.orgAcct[jobs[r.Job].Org], &c.total} {
				a.U, a.S = a.U-w.U, a.S-w.S
			}
		}
		c.running.push(r)
		c.start(r, jobs[r.Job].Org)
		c.runningPerOrg[jobs[r.Job].Org]++
	}
	c.free = c.free[:0]
	for m := len(busy) - 1; m >= 0; m-- {
		if !busy[m] {
			c.free = append(c.free, m)
		}
	}
	c.starts = append([]Start(nil), st.Starts...)
	for i := range c.starts {
		c.starts[i].Org = jobs[c.starts[i].Job].Org // a capture does not carry it
	}
	return nil
}
