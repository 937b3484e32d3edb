package sim

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/model"
	"repro/internal/utility"
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
// Queues serve every organization of the instance. The clusters on them
// advance in lockstep: their driver releases the queues (AdvanceTo)
// before it advances and dispatches any cluster at the instant.
type Queues struct {
	inst     *model.Instance
	pending  []int      // entered, unreleased job IDs by (Release, ID)
	buf      []int      // the buffer Inject last grew pending into; AdvanceTo moves pending forward through it
	lists    [][]int    // org -> released job IDs by release
	base     []int      // org -> absolute position of lists[org][0]
	trimAt   []int      // org -> list length at which the started prefix is dropped next
	mark     []uint8    // job ID -> entered or withdrawn
	now      model.Time // the latest instant released up to
	clusters []*Cluster // every cluster built on these queues

	batch []int // scratch: an Inject batch in release order

	speed  int            // the one speed every machine of the instance runs at; 0 when they differ
	starts *releaseStarts // the release-start ledger, when a set keeps one (KeepReleaseStarts)
	form   releaseForm    // the release-start schedules a capture or restore last derived
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

// minPending is the smallest buffer Inject grows the pending list into:
// a driver that steps on demand lets releases pile up between its steps.
const minPending = 16

// NewQueues builds the shared queues of a job stream over every
// organization of the instance, entering the jobs it already holds.
func NewQueues(inst *model.Instance) *Queues {
	k := len(inst.Orgs)
	perOrg := make([]int, 2*k)
	q := &Queues{
		inst:   inst,
		lists:  make([][]int, k),
		base:   perOrg[:k:k],
		trimAt: perOrg[k:],
		mark:   make([]uint8, len(inst.Jobs)),
	}
	for u := range q.trimAt {
		q.trimAt[u] = minTrim
	}
	q.speed = uniformSpeed(inst)
	for _, j := range inst.Jobs {
		q.pending = append(q.pending, j.ID)
		q.mark[j.ID] = entered
	}
	// An instance in feed order (a rebuilt checkpoint's) need not be in
	// release order; restore overwrites it, but keep the rule anyway.
	if !slices.IsSortedFunc(q.pending, q.compare) {
		slices.SortFunc(q.pending, q.compare)
	}
	return q
}

// uniformSpeed returns the one speed every machine of the instance runs
// at, or 0 when they differ or there are none.
func uniformSpeed(inst *model.Instance) int {
	speed := 0
	for _, o := range inst.Orgs {
		for i := 0; i < o.Machines; i++ {
			if speed == 0 {
				speed = o.Speed(i)
			} else if o.Speed(i) != speed {
				return 0
			}
		}
	}
	return speed
}

// NewCluster builds a cluster of the coalition on these queues, driven
// by the policy; rng may be nil when the policy is deterministic. Every
// cluster of a set is built before its first step.
func (q *Queues) NewCluster(coal model.Coalition, p Policy, rng *rand.Rand) *Cluster {
	if !coal.SubsetOf(q.inst.Grand()) {
		panic(fmt.Sprintf("sim: coalition %v outside the instance's organizations %v", coal, q.inst.Grand()))
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
func (q *Queues) NextRelease() model.Time {
	if len(q.pending) == 0 {
		return MaxTime
	}
	return q.inst.Jobs[q.pending[0]].Release
}

// AdvanceTo releases every pending job with Release ≤ t and returns the
// organizations that had one. The driver of the clusters on the queues
// calls it at every instant it steps to, before advancing any of them.
//
// Where a release-start ledger is kept, it books the releases of the
// call before, folds its completions up to t and holds this call's
// releases apart until BookReleases: a cluster in free flow that they
// overflow is materialized from the ledger as it stood before them.
func (q *Queues) AdvanceTo(t model.Time) model.Coalition {
	q.now = max(q.now, t)
	f := q.starts
	if f != nil {
		f.book(q.inst.Jobs)
		f.fold(q.inst.Jobs, t)
	}
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
		if f != nil {
			f.batch = append(f.batch, id)
			f.fresh[u]++
			f.loadsOK = false
		}
	}
	if n == 0 {
		return 0
	}
	// Copying the rest down costs no more than the releases did; else the
	// list moves on, and Inject's next growth reuses the front it left.
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
		if c.coal.Has(org) && !c.flow { // a cluster in free flow started every released job
			least = min(least, c.cursor[org])
		}
	}
	q.lists[org] = append(list[:0], list[least-q.base[org]:]...)
	q.base[org] = least
	q.trimAt[org] = max(minTrim, 2*len(q.lists[org]))
}

// Inject enters jobs that were appended to the instance after the
// queues were built (online arrivals), for every cluster on them. Each
// must already be in inst.Jobs at its index, must not be released
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
		if id < len(q.mark) {
			switch q.mark[id] {
			case withdrawnJob:
				return fmt.Errorf("sim: inject: job %d was withdrawn", id)
			case entered:
				return fmt.Errorf("sim: inject: job %d has already entered", id)
			}
		}
		if r := jobs[id].Release; r < q.now {
			return fmt.Errorf("sim: inject: job %d released at %d, before current time %d", id, r, q.now)
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
	if need := n + len(batch); need > cap(q.pending) {
		if need > cap(q.buf) {
			q.buf = make([]int, 0, max(2*need, minPending))
		}
		q.pending = append(q.buf[:0], q.pending...)
	}
	q.pending = q.pending[:n+len(batch)]
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
		case !c.coal.Has(org) || c.flow: // in free flow: started if released, and it records nothing
		case c.cursor[org] > pos:
			c.cursor[org]--
		case !c.noStarts:
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
// (Release, ID) order. Every job in the instance has entered — it is in
// one of the lists or withdrawn — and the withdrawn ones are marked so.
// The jobs every cluster has started are dropped at the next release.
func (q *Queues) reset(now model.Time, released [][]int, pending, withdrawn []int) {
	for u, list := range released {
		q.lists[u], q.base[u], q.trimAt[u] = list, 0, minTrim
	}
	q.pending = append(q.pending[:0], pending...)
	q.mark = make([]uint8, len(q.inst.Jobs))
	for id := range q.mark {
		q.mark[id] = entered
	}
	for _, id := range withdrawn {
		q.mark[id] = withdrawnJob
	}
	q.now = now
	if q.starts != nil {
		q.starts = q.newReleaseStarts()
	}
}

// releaseStarts is the release-start ledger of a set whose machines all
// run at one speed: every released job taken as started at its release.
// A hypothetical schedule in free flow — nothing waits in it, and it
// runs exactly its members' jobs that started at their release — is
// that schedule for its members plus a finished-work offset, so the
// set books each job here once, at its release and at its completion,
// instead of once per coalition schedule. A released job that is
// withdrawn stays: a schedule that started it keeps it.
//
// What a coalition in free flow reads of it is a sum over its members:
// its load (Overflows) and its accounts' value at an instant
// (Cluster.ValueAt). Each is kept as subset-sum tables over the
// organization index in chunks of four — entry m of chunk c sums the
// per-organization terms of the bits of m, organizations 4c to 4c+3 —
// so a coalition's sum is one lookup per chunk. A table is rebuilt when
// it is next read after book, fold or a held release changed its terms.
//
// Nothing of it is checkpointed: restore rebuilds it from the released
// jobs (Queues.reset).
type releaseStarts struct {
	speed    int
	now      model.Time  // every completion up to it is folded
	acct     []ValuePoly // org -> its booked jobs' work
	running  []int       // org -> how many of its booked jobs run
	fresh    []int       // org -> released by the latest AdvanceTo, not booked yet
	batch    []int       // those jobs
	heap     runHeap     // the booked jobs that run, by completion
	machines []int       // org -> its machines

	terms    []int64     // scratch: a table's per-organization terms, 4 per chunk
	loads    [][16]int64 // chunk -> Σ running + fresh − machines over the bits
	over     model.Coalition
	loadsOK  bool        // loads and over hold the current counts
	values   [][16]int64 // chunk -> Σ acct.At(valuesAt) over the bits
	valuesAt model.Time
	valuesOK bool // values hold the current accounts at valuesAt
}

// KeepReleaseStarts makes the queues keep a release-start ledger when on
// and every machine of the instance runs at one speed, and drops it
// otherwise; it reports whether one is kept. A ledger is built from the
// released jobs, so it is turned on before the first release or right
// after a restore, when the lists hold every released job; it is turned
// off only when no cluster on the queues is in free flow.
func (q *Queues) KeepReleaseStarts(on bool) bool {
	switch {
	case !on || q.speed == 0:
		q.starts = nil
	case q.starts == nil:
		q.starts = q.newReleaseStarts()
	}
	return q.starts != nil
}

// newReleaseStarts builds the ledger of the released jobs at q.now, the
// withdrawn ones released by then included. A withdrawn job's release
// is not recorded, so one withdrawn before it was released is booked
// too: every schedule of its organization then runs one job fewer than
// the ledger until it ends, and none enters free flow with a wrong
// running set.
func (q *Queues) newReleaseStarts() *releaseStarts {
	k := len(q.inst.Orgs)
	chunks := (k + 3) / 4
	tables := make([][16]int64, 2*chunks)
	perOrg := make([]int, 3*k)
	f := &releaseStarts{
		speed:    q.speed,
		now:      q.now,
		acct:     make([]ValuePoly, k),
		running:  perOrg[:k:k],
		fresh:    perOrg[k : 2*k : 2*k],
		machines: perOrg[2*k:],
		terms:    make([]int64, 4*chunks),
		loads:    tables[:chunks:chunks],
		values:   tables[chunks:],
	}
	for u, o := range q.inst.Orgs {
		f.machines[u] = o.Machines
	}
	jobs := q.inst.Jobs
	for _, list := range q.lists {
		f.batch = append(f.batch, list...)
	}
	for id, m := range q.mark {
		if m == withdrawnJob && jobs[id].Release <= q.now {
			f.batch = append(f.batch, id)
		}
	}
	f.book(jobs)
	f.fold(jobs, q.now)
	return f
}

// book enters the held releases as started at their release.
func (f *releaseStarts) book(jobs []model.Job) {
	for _, id := range f.batch {
		j := jobs[id]
		f.heap.push(execution(id, j.Size, 0, f.speed, j.Release))
		f.acct[j.Org].run(int64(f.speed), j.Release)
		f.running[j.Org]++
	}
	if len(f.batch) > 0 {
		f.loadsOK, f.valuesOK = false, false
	}
	f.batch = f.batch[:0]
	clear(f.fresh)
}

// fold processes every booked completion up to t.
func (f *releaseStarts) fold(jobs []model.Job, t model.Time) {
	for len(f.heap) > 0 && f.heap[0].End <= t {
		r := f.heap.pop()
		j := jobs[r.Job]
		d := finished(r, j.Size, f.speed)
		f.acct[j.Org].add(&d)
		f.running[j.Org]--
		f.loadsOK, f.valuesOK = false, false
	}
	f.now = max(f.now, t)
}

// subsetSums fills each chunk's table from f.terms: entry m of chunk c
// is the sum of the terms of organizations 4c+b over the bits b of m.
func (f *releaseStarts) subsetSums(tables [][16]int64) {
	for c := range tables {
		tab, terms := &tables[c], f.terms[4*c:4*c+4]
		for m := 1; m < 16; m++ {
			tab[m] = tab[m&(m-1)] + terms[bits.TrailingZeros(uint(m))]
		}
	}
}

// chunkSum returns the sum of coal's members' terms in the tables: one
// lookup per chunk up to its highest member.
func chunkSum(tables [][16]int64, coal model.Coalition) int64 {
	var sum int64
	for c, m := 0, uint32(coal); m != 0; c, m = c+1, m>>4 {
		sum += tables[c][m&15]
	}
	return sum
}

// overloaded returns the organizations whose booked running jobs and
// held releases outnumber their machines, rebuilding the load tables
// if they are stale.
func (f *releaseStarts) overloaded() model.Coalition {
	if !f.loadsOK {
		f.over = 0
		for u, n := range f.running {
			load := n + f.fresh[u] - f.machines[u]
			f.terms[u] = int64(load)
			if load > 0 {
				f.over = f.over.With(u)
			}
		}
		f.subsetSums(f.loads)
		f.loadsOK = true
	}
	return f.over
}

// valueOf returns Σ_{u∈coal} acct[u].At(t) from the value tables,
// rebuilding them at t if t is another instant or they are stale. Every
// account's At numerator, Σ q(t−s)(t−s+1) over its running terms, is
// even, so the sum of the members' values is the value of the sum of
// their accounts, exactly.
func (f *releaseStarts) valueOf(coal model.Coalition, t model.Time) int64 {
	if !f.valuesOK || f.valuesAt != t {
		for u := range f.acct {
			f.terms[u] = f.acct[u].At(t)
		}
		f.subsetSums(f.values)
		f.valuesAt, f.valuesOK = t, true
	}
	return chunkSum(f.values, coal)
}

// BookReleases books the releases the latest AdvanceTo held apart. The
// driver calls it once it has materialized the clusters they overflow.
func (q *Queues) BookReleases() {
	if q.starts != nil {
		q.starts.book(q.inst.Jobs)
	}
}

// Overloaded returns the organizations whose booked running jobs and
// releases held apart outnumber their own machines, on queues that keep
// a release-start ledger: a coalition in free flow can overflow only
// through one of them (Overflows).
func (q *Queues) Overloaded() model.Coalition { return q.starts.overloaded() }

// Overflows reports whether the latest releases overflow the pool of a
// coalition in free flow: its members' booked running jobs and the
// releases the ledger holds apart outnumber its machines. On machines
// of one speed the pool is the members' machines, so that is a subset
// sum of the members' loads, running + fresh − machines, being
// positive: a mask test, then one lookup per chunk of four
// organizations.
func (q *Queues) Overflows(coal model.Coalition) bool {
	f := q.starts
	return coal&f.overloaded() != 0 && chunkSum(f.loads, coal) > 0
}

// StartsCompletionAfter returns the earliest completion later than t of
// a booked job of an organization in orgs, or MaxTime: the next
// completion of the clusters of those organizations in free flow.
func (q *Queues) StartsCompletionAfter(orgs model.Coalition, t model.Time) model.Time {
	next := MaxTime
	if f := q.starts; f != nil && orgs != 0 {
		for _, r := range f.heap {
			if r.End > t && r.End < next && orgs.Has(q.inst.Jobs[r.Job].Org) {
				next = r.End
			}
		}
	}
	return next
}

// releaseForm is every organization's release-start schedule at one
// instant, derived from the instance's jobs alone — not from a ledger,
// which books a job withdrawn while pending once restored: each job
// released by then, withdrawn or not, taken as started at its release on
// a machine of the queues' one speed.
type releaseForm struct {
	at      model.Time
	jobs    int               // the job list's length when derived
	running [][]runEntry      // org -> its jobs still running at `at`, by (end, job); nil before the first
	done    []utility.Account // org -> its finished work at `at`
}

// releaseStartOf returns coal's release-start schedule at t on queues
// whose machines share one speed: its members' running jobs by (end,
// job) on machines 0, 1, …, as a capture writes them, and each member's
// finished work, in fresh slices. The organizations' schedules are
// derived once per instant and job list, so the slots of a set pay one
// pass over the jobs per capture or restore.
func (q *Queues) releaseStartOf(coal model.Coalition, t model.Time) ([]RunEntryState, []utility.Account) {
	f := &q.form
	if jobs := q.inst.Jobs; f.running == nil || f.jobs != len(jobs) || f.at != t {
		if f.running == nil {
			f.running, f.done = make([][]runEntry, len(q.inst.Orgs)), make([]utility.Account, len(q.inst.Orgs))
		}
		f.at, f.jobs = t, len(jobs)
		for u := range f.running {
			f.running[u] = f.running[u][:0]
		}
		clear(f.done)
		for id, j := range jobs {
			if j.Release > t {
				continue
			}
			if r := execution(id, j.Size, 0, q.speed, j.Release); r.End > t {
				f.running[j.Org] = append(f.running[j.Org], r)
			} else {
				f.done[j.Org].AddScaledWindow(j.Release, j.Size, q.speed, j.Release, r.End)
			}
		}
		for _, rs := range f.running {
			slices.SortFunc(rs, byEndJob)
		}
	}
	var running []runEntry
	var done []utility.Account
	for _, u := range coal.Members() {
		running = append(running, f.running[u]...)
		done = append(done, f.done[u])
	}
	slices.SortFunc(running, byEndJob)
	var out []RunEntryState
	for i, r := range running {
		out = append(out, RunEntryState{Job: int(r.Job), Machine: i, Start: r.Start})
	}
	return out, done
}
