package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/model"
)

// Queues holds the job queues of the clusters that schedule one job
// stream, split as the on-line model splits a job's life: a job is a
// future event until its release, then waits in its organization's FIFO
// queue. Pending keeps every entered, unreleased job in one (Release,
// ID)-ordered list; AdvanceTo moves its due prefix onto the
// organizations' lists, which hold released jobs only. Every coalition
// schedule of a set serves an organization's jobs in this release
// order, so two clusters' queues for an organization differ only in how
// far each has started. The queue is kept once; a cluster keeps a
// cursor per organization, the number of its jobs it has started.
//
// Positions in an organization's list are absolute — the list drops the
// prefix every cluster has started past, and base is the position of
// its first entry — so a cluster's cursor survives the drop.
//
// Clusters on shared queues advance in lockstep: the owner releases the
// queues (AdvanceTo) before it advances and dispatches any cluster at
// the instant. A cluster built by New owns private queues and releases
// them itself.
type Queues struct {
	inst     *model.Instance
	orgs     model.Coalition // organizations whose jobs enter
	pending  []int           // entered, unreleased job IDs by (Release, ID)
	lists    [][]int         // org -> released job IDs by release
	base     []int           // org -> absolute position of lists[org][0]
	trimAt   []int           // org -> list length at which the started prefix is dropped next
	mark     []uint8         // job ID -> entered or withdrawn
	now      model.Time      // the latest instant released up to
	clusters []*Cluster      // every cluster built on these queues

	batch []int // scratch: an Inject batch's members in release order
}

// A job's mark: not yet entered, entered (pending, queued, started or
// finished) or withdrawn. An entered or withdrawn job is refused by
// Inject for good.
const (
	entered = 1 + iota
	withdrawnJob
)

// minTrim is the released length below which a list is never trimmed:
// a trim costs a pass over the clusters, so it waits for this many
// releases at least.
const minTrim = 64

// NewQueues builds the shared queues of a job stream over every
// organization of the instance, entering the jobs it already holds.
func NewQueues(inst *model.Instance) *Queues { return newQueues(inst, inst.Grand()) }

func newQueues(inst *model.Instance, orgs model.Coalition) *Queues {
	k := len(inst.Orgs)
	perOrg := make([]int, 2*k)
	q := &Queues{
		inst:   inst,
		orgs:   orgs,
		lists:  make([][]int, k),
		base:   perOrg[:k:k],
		trimAt: perOrg[k:],
		mark:   make([]uint8, len(inst.Jobs)),
	}
	for u := range q.trimAt {
		q.trimAt[u] = minTrim
	}
	for _, j := range inst.Jobs {
		if orgs.Has(j.Org) {
			q.pending = append(q.pending, j.ID)
			q.mark[j.ID] = entered
		}
	}
	// An instance in feed order (a rebuilt checkpoint's) need not be in
	// release order; restore overwrites it, but keep the rule anyway.
	if !slices.IsSortedFunc(q.pending, q.compare) {
		slices.SortFunc(q.pending, q.compare)
	}
	return q
}

// NewCluster builds a cluster of the coalition on these queues, driven
// by the policy; rng may be nil when the policy is deterministic. Every
// cluster of a set is built before its first step.
func (q *Queues) NewCluster(coal model.Coalition, p Policy, rng *rand.Rand) *Cluster {
	if !coal.SubsetOf(q.orgs) {
		panic(fmt.Sprintf("sim: coalition %v outside the queues' organizations %v", coal, q.orgs))
	}
	c := newCluster(q, coal, p, rng)
	copy(c.cursor, q.base)
	q.clusters = append(q.clusters, c)
	return c
}

// compare orders job IDs by (Release, ID).
func (q *Queues) compare(a, b int) int {
	return cmp.Or(cmp.Compare(q.inst.Jobs[a].Release, q.inst.Jobs[b].Release), cmp.Compare(a, b))
}

// releaseLess reports whether job a comes before job b by (Release, ID).
func releaseLess(jobs []model.Job, a, b int) bool {
	ra, rb := jobs[a].Release, jobs[b].Release
	return ra < rb || ra == rb && a < b
}

// window returns org's released jobs from absolute position cursor on.
func (q *Queues) window(org, cursor int) []int { return q.lists[org][cursor-q.base[org]:] }

// NextRelease returns the earliest pending release, or MaxTime.
func (q *Queues) NextRelease() model.Time { return q.earliest(q.orgs) }

// earliest returns the earliest pending release of a member of coal, or
// MaxTime: the head's, unless coal is narrower than the queues.
func (q *Queues) earliest(coal model.Coalition) model.Time {
	for _, id := range q.pending {
		if j := q.inst.Jobs[id]; coal.Has(j.Org) {
			return j.Release
		}
	}
	return MaxTime
}

// AdvanceTo releases every pending job with Release ≤ t and returns the
// organizations that had one. The owner of shared queues calls it at
// every instant it steps to, before advancing any cluster there.
func (q *Queues) AdvanceTo(t model.Time) model.Coalition {
	q.now = max(q.now, t)
	jobs := q.inst.Jobs
	var releasing model.Coalition
	n := 0
	for ; n < len(q.pending) && jobs[q.pending[n]].Release <= t; n++ {
		id := q.pending[n]
		u := jobs[id].Org
		list := grow(q.lists[u], 1) // doubling: append's first steps allocate more often
		list[len(list)-1] = id
		q.lists[u] = list
		releasing = releasing.With(u)
	}
	if n == 0 {
		return 0
	}
	// Copying the rest down costs no more than the releases did; else the
	// list moves on, and Inject's next growth reclaims the space.
	if rest := q.pending[n:]; len(rest) <= n {
		q.pending = append(q.pending[:0], rest...)
	} else {
		q.pending = rest
	}
	for m := uint32(releasing); m != 0; m &= m - 1 {
		if u := bits.TrailingZeros32(m); len(q.lists[u]) >= q.trimAt[u] {
			q.trim(u)
		}
	}
	return releasing
}

// trim drops the prefix of org's list that every member cluster has
// started past, and sets the next trim for when the list has doubled.
// The pass over the clusters is amortized over the releases between two
// trims.
func (q *Queues) trim(org int) {
	list := q.lists[org]
	least := q.base[org] + len(list)
	for _, c := range q.clusters {
		if c.coal.Has(org) {
			least = min(least, c.cursor[org])
		}
	}
	q.lists[org] = append(list[:0], list[least-q.base[org]:]...)
	q.base[org] = least
	q.trimAt[org] = max(minTrim, 2*len(q.lists[org]))
}

// Inject enters jobs that were appended to the instance after the
// queues were built (online arrivals), for every cluster on them. Each
// must already be in inst.Jobs at its index. Jobs of organizations the
// queues do not serve are ignored; any other must not be released
// before the latest instant released up to — its release becomes a
// future event exactly as if the job had been known from the start, and
// a release at that instant is due at once — and must not have entered
// before: pending, queued, started and withdrawn jobs are refused (work
// that moves elsewhere enters there as a new job).
//
// Every ID is checked before any is entered, so an error leaves the
// queues as they were. The batch is then sorted into release order once
// and merged into the pending list from the back.
func (q *Queues) Inject(ids ...int) error {
	jobs := q.inst.Jobs
	q.batch = grow(q.batch[:0], len(ids))[:0]
	for _, id := range ids {
		if id < 0 || id >= len(jobs) {
			return fmt.Errorf("sim: inject: job %d not in instance", id)
		}
		j := jobs[id]
		if !q.orgs.Has(j.Org) {
			continue
		}
		if id < len(q.mark) {
			switch q.mark[id] {
			case withdrawnJob:
				return fmt.Errorf("sim: inject: job %d was withdrawn", id)
			case entered:
				return fmt.Errorf("sim: inject: job %d has already entered", id)
			}
		}
		if j.Release < q.now {
			return fmt.Errorf("sim: inject: job %d released at %d, before current time %d", id, j.Release, q.now)
		}
		q.batch = append(q.batch, id)
	}
	if len(q.batch) == 0 {
		return nil
	}
	batch := q.batch
	for i := 1; i < len(batch); i++ {
		if !releaseLess(jobs, batch[i-1], batch[i]) {
			slices.SortFunc(batch, q.compare)
			break
		}
	}
	for i := 1; i < len(batch); i++ {
		if batch[i] == batch[i-1] {
			return fmt.Errorf("sim: inject: job %d is in the batch twice", batch[i])
		}
	}
	q.mark = grow(q.mark, len(jobs)-len(q.mark))
	for _, id := range batch {
		q.mark[id] = entered
	}
	// Merge from the back: nothing is searched, and a pending job moves
	// once, by the arrivals after it.
	n := len(q.pending)
	q.pending = grow(q.pending, len(batch))
	p, w := q.pending, len(q.pending)-1
	for b := len(batch) - 1; b >= 0; b-- {
		for ; n > 0 && releaseLess(jobs, batch[b], p[n-1]); n-- {
			p[w] = p[n-1]
			w--
		}
		p[w] = batch[b]
		w--
	}
	return nil
}

// grow extends s by n zero elements, reallocating at most once, to
// twice the length it needs. (slices.Grow's temporary slice allocates
// under the race detector, where the allocation budgets also run.)
func grow[E any](s []E, n int) []E {
	if n <= 0 {
		return s
	}
	if len(s)+n > cap(s) {
		g := make([]E, len(s), 2*(len(s)+n))
		copy(g, s)
		s = g
	}
	s = s[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// find returns the absolute position of job id in org's list, or past
// its end for a pending job: the released length plus its index in the
// pending list. The pending list is searched exactly; a released list
// is ordered by release, so a search finds the job's release and a scan
// of its ties the job.
func (q *Queues) find(org, id int) (int, bool) {
	jobs, list := q.inst.Jobs, q.lists[org]
	if i, ok := slices.BinarySearchFunc(q.pending, id, q.compare); ok {
		return q.base[org] + len(list) + i, true
	}
	r := jobs[id].Release
	lo, _ := slices.BinarySearchFunc(list, r, func(id int, r model.Time) int { return cmp.Compare(jobs[id].Release, r) })
	for ; lo < len(list) && jobs[list[lo]].Release == r; lo++ {
		if list[lo] == id {
			return q.base[org] + lo, true
		}
	}
	return 0, false
}

// withdraw removes the job at position pos (as find returns it) for
// good. Every member cluster that already started it steps its cursor
// back over the gap; every other one that checkpoints its queues records
// the withdrawal.
func (q *Queues) withdraw(org, pos int) {
	var id int
	if i := pos - q.base[org]; i < len(q.lists[org]) {
		id = q.lists[org][i]
		q.lists[org] = slices.Delete(q.lists[org], i, i+1)
	} else {
		i -= len(q.lists[org])
		id = q.pending[i]
		q.pending = slices.Delete(q.pending, i, i+1)
	}
	q.mark[id] = withdrawnJob
	for _, c := range q.clusters {
		switch {
		case !c.coal.Has(org):
		case c.cursor[org] > pos:
			c.cursor[org]--
		case c.rebuilds():
			c.withdrawn = append(c.withdrawn, id)
		}
	}
}

// pendingOf returns the pending jobs of coal's members in (Release, ID)
// order, nil when there are none.
func (q *Queues) pendingOf(coal model.Coalition) []int {
	var out []int
	for _, id := range q.pending {
		if coal.Has(q.inst.Jobs[id].Org) {
			out = append(out, id)
		}
	}
	return out
}

// reset rebuilds the queues from a restored cluster state that spans
// them: each organization's released jobs, and the pending ones in
// (Release, ID) order. Every job of a served organization in the
// instance has entered — it is in one of the lists or withdrawn — and
// the withdrawn ones are marked so. The jobs every cluster has started
// are dropped at the next release.
func (q *Queues) reset(now model.Time, released [][]int, pending, withdrawn []int) {
	jobs := q.inst.Jobs
	for u, list := range released {
		q.lists[u], q.base[u], q.trimAt[u] = list, 0, minTrim
	}
	q.pending = append(q.pending[:0], pending...)
	q.mark = make([]uint8, len(jobs))
	for id, j := range jobs {
		if q.orgs.Has(j.Org) {
			q.mark[id] = entered
		}
	}
	for _, id := range withdrawn {
		q.mark[id] = withdrawnJob
	}
	q.now = now
}

// checkWindow reports whether an older document's state of a cluster of
// coal is its window of the queues: per member, the queued jobs the last
// of the released ones, and the pending list the members' pending jobs
// in (Release, ID) order.
func (q *Queues) checkWindow(coal model.Coalition, queues [][]int, pending []int) error {
	for u, w := range queues {
		if released := q.lists[u]; coal.Has(u) && (len(w) > len(released) || !slices.Equal(w, released[len(released)-len(w):])) {
			return fmt.Errorf("sim: restore: organization %d's queue %v is not a window of its released jobs %v", u, w, released)
		}
	}
	if want := q.pendingOf(coal); !slices.Equal(pending, want) {
		return fmt.Errorf("sim: restore: pending releases %v, the decision schedule's are %v", pending, want)
	}
	return nil
}
