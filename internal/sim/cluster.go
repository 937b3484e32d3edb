// Package sim is the event-driven simulator of one coalition's cluster:
// identical machines contributed by the member organizations, job
// queues split as the on-line model splits a job's life — future
// releases in one (release, ID)-ordered list, released jobs in
// per-organization FIFO queues, kept for every organization of the
// instance — greedy non-preemptive dispatch through a pluggable Policy,
// and exact integer ψsp accounting per job owner and per machine owner.
//
// Every program drives clusters through internal/core's schedule-set
// loop, a policy baseline's one cluster included: built on one shared
// Queues, it steps the clusters event by event with the primitives
// Queues.AdvanceTo, NextCompletion, AdvanceTo, WaitingAmong, StartHeads
// and DispatchCount, and interleaves contribution computations between
// event processing and dispatch. Step, a cluster alone on its queues
// releasing them as it steps, remains for the benchmark's cluster
// kernel and the tests.
//
// Greediness (no machine idles while a job waits) is an engine
// invariant, not a policy obligation: the dispatch loop keeps starting
// jobs while both a free machine and a waiting job exist.
//
// Every ψsp account is a ValuePoly kept exact at all times: a start
// adds its running term, a completion swaps that term for the job's
// finished work. Advancing a cluster through an uneventful period costs
// O(1), and every value read — at the clock or at any later instant
// before the next event — is O(1) and mutates nothing. This matters to
// the exponential REF scheduler, which maintains 2^k−1 clusters and
// reads all of their values at every dispatch instant. On machines of
// one speed a hypothetical cluster whose members' jobs all start at
// their release is in free flow: one release-start ledger of its queues
// (releaseStarts) does its bookkeeping for every such cluster at once.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/model"
	"repro/internal/utility"
)

// MaxTime is the sentinel returned by NextEventTime when no event will
// ever occur again.
const MaxTime = model.Time(math.MaxInt64)

// Start records one scheduling decision: job (by ID) started at At on
// Machine. Org is the job's; a capture leaves it out.
type Start struct {
	Job     int
	Org     int `json:"-"`
	Machine int
	At      model.Time
}

// Cluster simulates one coalition. Create with New or Queues.NewCluster;
// the zero value is not usable.
type Cluster struct {
	// What a schedule set's step and a policy's Select read, together.
	view    View // the one read-only window handed to the policy and to View callers
	coal    model.Coalition
	inst    *model.Instance
	now     model.Time
	free    []int // free machine IDs, a stack: strictly descending, the lowest on top (last)
	running runHeap
	q       *Queues
	lists   [][]int // q's, shared: org -> released job IDs by release
	base    []int   // q's, shared: org -> absolute position of lists[org][0]
	cursor  []int   // org -> absolute position in q's list: its jobs started here

	owners         []int // machine -> owning org
	speeds         []int // machine -> work units per time unit
	capacity       int64 // Σ speeds
	capacityPerOrg []int64
	runningPerOrg  []int

	withdrawn []int // job IDs withdrawn while unstarted here, in order; kept where the capture holds queues

	orgAcct []ValuePoly // per job owner
	ownAcct []ValuePoly // per machine owner; nil after DiscardStarts
	total   ValuePoly

	policy   Policy
	orderer  MachineOrderer // policy, when it reorders the free machines
	rng      *rand.Rand
	starts   []Start
	noStarts bool // DiscardStarts: starts stays nil

	// flow: the cluster is in free flow (see releaseStarts). It then
	// holds no running entry, free machine or cursor of its own — its
	// members' release-start jobs are all its work and it has started
	// every released job — and its accounts hold only the finished-work
	// offset to the ledger's. Its reads (ValueAt, Psi, Waiting, the View)
	// then answer for the offset alone: its driver reads FlowValueAt.
	flow bool
}

// New builds a cluster for the given coalition of the instance, driven
// by the policy, alone on queues of the whole instance (NewQueues), which
// Step releases. rng may be nil when the policy is deterministic.
func New(inst *model.Instance, coal model.Coalition, p Policy, rng *rand.Rand) *Cluster {
	return NewQueues(inst).NewCluster(coal, p, rng)
}

func newCluster(q *Queues, coal model.Coalition, p Policy, rng *rand.Rand) *Cluster {
	inst := q.inst
	k := len(inst.Orgs)
	perOrg := make([]int, 2*k)
	c := &Cluster{
		inst:           inst,
		coal:           coal,
		capacityPerOrg: make([]int64, k),
		q:              q,
		lists:          q.lists,
		base:           q.base,
		cursor:         perOrg[:k:k],
		runningPerOrg:  perOrg[k:],
		orgAcct:        make([]ValuePoly, k),
		ownAcct:        make([]ValuePoly, k),
		policy:         p,
		rng:            rng,
	}
	machines := 0
	for org := 0; org < k; org++ {
		if coal.Has(org) {
			machines += inst.Orgs[org].Machines
		}
	}
	c.owners = make([]int, 0, machines)
	c.speeds = make([]int, 0, machines)
	for org := 0; org < k; org++ {
		if !coal.Has(org) {
			continue
		}
		o := inst.Orgs[org]
		c.capacityPerOrg[org] = o.Capacity()
		c.capacity += o.Capacity()
		for i := 0; i < o.Machines; i++ {
			c.owners = append(c.owners, org)
			c.speeds = append(c.speeds, o.Speed(i))
		}
	}
	c.free = make([]int, machines) // every machine, the lowest on top
	for i := range c.free {
		c.free[i] = machines - 1 - i
	}
	c.view = View{c}
	if p != nil {
		c.orderer, _ = p.(MachineOrderer)
		p.Attach(&c.view, rng)
	}
	return c
}

// Policy returns the driving policy.
func (c *Cluster) Policy() Policy { return c.policy }

// Coalition returns the simulated coalition.
func (c *Cluster) Coalition() model.Coalition { return c.coal }

// NextEventTime returns the earliest pending release on the queues or
// completion here, or MaxTime when neither exists.
func (c *Cluster) NextEventTime() model.Time {
	return min(c.q.NextRelease(), c.NextCompletion())
}

// NextCompletion returns the earliest completion, or MaxTime when no job
// runs.
func (c *Cluster) NextCompletion() model.Time {
	if len(c.running) == 0 {
		return MaxTime
	}
	return c.running[0].End
}

// NextCompletionAfter returns the earliest completion later than t, or
// MaxTime: the next completion for a driver that leaves those up to t
// unprocessed until it next reads the cluster. It mutates nothing.
func (c *Cluster) NextCompletionAfter(t model.Time) model.Time {
	if next := c.NextCompletion(); next > t {
		return next
	}
	next := MaxTime
	for _, r := range c.running {
		if r.End > t {
			next = min(next, r.End)
		}
	}
	return next
}

// AdvanceTo moves the clock to t, processing every completion with time
// ≤ t, but releases nothing and performs no dispatch: the driver
// releases the queues (Queues.AdvanceTo) first. External drivers must
// advance event by event (t = the global minimum NextEventTime) so that
// no dispatch opportunity is skipped; Step does this automatically.
func (c *Cluster) AdvanceTo(t model.Time) {
	if t < c.now {
		panic(fmt.Sprintf("sim: AdvanceTo(%d) before current time %d", t, c.now))
	}
	for len(c.running) > 0 && c.running[0].End <= t {
		top := c.running.pop()
		j := c.inst.Jobs[top.Job]
		c.finish(top, j)
		c.freeMachine(int(top.Machine))
		c.runningPerOrg[j.Org]--
	}
	c.now = t
}

// book adds d to the accounts an execution of org's job on machine m is
// booked to: its owner's, the total and, where machine-owner accounts
// are kept, the machine owner's.
func (c *Cluster) book(org, m int, d *ValuePoly) {
	c.orgAcct[org].add(d)
	c.total.add(d)
	if c.ownAcct != nil {
		c.ownAcct[c.owners[m]].add(d)
	}
}

// freeMachine pushes machine m back onto the free stack, in order: it
// is inserted from the top, past the free machines with lower IDs, so the
// stack stays strictly descending.
func (c *Cluster) freeMachine(m int) {
	i := len(c.free)
	c.free = append(c.free, m)
	for ; i > 0 && c.free[i-1] < m; i-- {
		c.free[i] = c.free[i-1]
	}
	c.free[i] = m
}

// start books r, an execution of org's job, as running.
func (c *Cluster) start(r runEntry, org int) {
	var d ValuePoly
	d.run(int64(c.speeds[r.Machine]), r.Start)
	c.book(org, int(r.Machine), &d)
}

// finish swaps r's running term for its finished work, the whole window
// [Start, End) of job j scaled by the machine's speed.
func (c *Cluster) finish(r runEntry, j model.Job) {
	d := finished(r, j.Size, c.speeds[r.Machine])
	c.book(j.Org, int(r.Machine), &d)
}

// finished returns the delta that swaps r's running term at speed q for
// its finished work, the whole window [Start, End) of a job of the size.
func finished(r runEntry, size model.Time, q int) ValuePoly {
	var d ValuePoly
	d.run(-int64(q), r.Start)
	d.AddScaledWindow(r.Start, size, q, r.Start, r.End)
	return d
}

// entry returns the execution of job on machine m from start.
func (c *Cluster) entry(job, m int, start model.Time) runEntry {
	return execution(job, c.inst.Jobs[job].Size, m, c.speeds[m], start)
}

// execution returns the execution of a job of the size on machine m of
// speed q from start, ending at its start plus ⌈size/q⌉.
func execution(job int, size model.Time, m, q int, start model.Time) runEntry {
	if s := model.Time(q); s > 1 {
		size = (size + s - 1) / s
	}
	return runEntry{End: start + size, Start: start, Job: int32(job), Machine: int32(m)}
}

// waiting returns the number of org's released jobs not yet started
// here. A policy asks it of every organization, members or not, so the
// membership test is a mask rather than a branch: a non-member's count
// is zeroed.
func (c *Cluster) waiting(org int) int {
	member := int(c.coal>>(uint(org)&31)) & 1
	return (c.base[org] + len(c.lists[org]) - c.cursor[org]) & -member
}

// head returns org's next job here.
func (c *Cluster) head(org int) int { return c.lists[org][c.cursor[org]-c.base[org]] }

// Waiting returns the number of released jobs not yet started here and
// the organizations they belong to, counted over the members.
func (c *Cluster) Waiting() (jobs int, orgs model.Coalition) { return c.WaitingAmong(c.coal) }

// WaitingAmong is Waiting counted over the members in among only, for a
// driver that knows no other member has a job waiting.
func (c *Cluster) WaitingAmong(among model.Coalition) (jobs int, orgs model.Coalition) {
	for m := uint32(c.coal & among); m != 0; m &= m - 1 {
		u := bits.TrailingZeros32(m)
		if w := c.base[u] + len(c.lists[u]) - c.cursor[u]; w > 0 {
			jobs, orgs = jobs+w, orgs.With(u)
		}
	}
	return jobs, orgs
}

// Queued appends to dst the member jobs the cluster has neither started
// nor seen withdrawn — each member's released jobs past its cursor and
// the members' pending releases — in ascending ID order.
func (c *Cluster) Queued(dst []int) []int {
	n := len(dst)
	for m := uint32(c.coal); m != 0; m &= m - 1 {
		u := bits.TrailingZeros32(m)
		dst = append(dst, c.q.window(u, c.cursor[u])...)
	}
	for _, id := range c.q.pending {
		if c.coal.Has(c.inst.Jobs[id].Org) {
			dst = append(dst, id)
		}
	}
	slices.Sort(dst[n:])
	return dst
}

// FreeMachines returns the number of idle machines.
func (c *Cluster) FreeMachines() int { return len(c.free) }

// Withdraw removes a job not yet started here from the queues the
// cluster schedules from — its organization's wait queue if it has been
// released, its pending releases if it has not — for good: Inject
// refuses its ID, and no account is touched (a queued job has executed
// nothing). It leaves every cluster on the queues: the decision schedule
// records it on its withdrawn list (checkpointed), and each that had
// started it keeps it — dispatch is non-preemptive.
//
// The first result reports whether the job was removed: false with a
// nil error means the job is not withdrawable here — it already
// started, was already withdrawn, or its organization is not a
// coalition member. Errors are reserved for malformed arguments.
func (c *Cluster) Withdraw(org, id int) (bool, error) {
	if id < 0 || id >= len(c.inst.Jobs) {
		return false, fmt.Errorf("sim: withdraw: job %d not in instance", id)
	}
	if j := c.inst.Jobs[id]; j.Org != org {
		return false, fmt.Errorf("sim: withdraw: job %d belongs to organization %d, not %d", id, j.Org, org)
	}
	if !c.coal.Has(org) {
		return false, nil
	}
	pos, ok := c.q.find(org, id)
	if !ok || pos < c.cursor[org] {
		return false, nil
	}
	c.q.withdraw(org, pos)
	return true, nil
}

// WithdrawnCount returns the number of jobs withdrawn from this cluster
// before it started them: 0 on a hypothetical schedule, which keeps no
// list.
func (c *Cluster) WithdrawnCount() int { return len(c.withdrawn) }

// Dispatch runs the greedy loop at the current instant: while a free
// machine and a waiting job exist, ask the policy and start the job.
func (c *Cluster) Dispatch() {
	jobs, _ := c.Waiting()
	c.dispatch(jobs, -1)
}

// DispatchCount is Dispatch for a driver that has just read Waiting:
// jobs is its count, which nothing has moved since.
func (c *Cluster) DispatchCount(jobs int) { c.dispatch(jobs, -1) }

// StartHeads is Dispatch when org is the only organization with a
// waiting job: it starts org's head jobs until the free machines or its
// jobs run out, without asking the policy. Select must name an
// organization with a waiting job and nothing arrives during a
// dispatch, so the policy's answer is forced; a policy that keeps state
// per Select (RoundRobin's rotation) must be asked anyway, through
// Dispatch. A MachineOrderer still orders the machines.
func (c *Cluster) StartHeads(org int) { c.dispatch(c.waiting(org), org) }

// dispatch starts min(free machines, jobs) waiting jobs, each the head
// job of org, or of the organization the policy selects when org is -1.
// It pops the machines off the free stack, in ascending ID order unless
// a MachineOrderer reorders them.
func (c *Cluster) dispatch(jobs, org int) {
	n := len(c.free)
	if n == 0 || jobs == 0 {
		return
	}
	if c.orderer != nil {
		// The orderer is handed the free machines ascending, and the
		// stack then pops them in the order it leaves.
		slices.Reverse(c.free)
		c.orderer.OrderMachines(c.now, c.free)
		slices.Reverse(c.free)
	}
	used := min(n, jobs)
	for i := n - 1; i >= n-used; i-- {
		m := c.free[i]
		u := org
		if u < 0 {
			u = c.policy.Select(c.now, m)
		}
		c.startHead(u, m)
	}
	c.free = c.free[:n-used]
	if c.orderer != nil {
		slices.SortFunc(c.free, func(a, b int) int { return b - a })
	}
}

// startHead starts org's head job on machine m at the current time.
func (c *Cluster) startHead(org int, m int) {
	if c.waiting(org) == 0 {
		panic(fmt.Sprintf("sim: policy %q selected organization %d with no waiting jobs", c.policy.Name(), org))
	}
	id := c.head(org)
	c.cursor[org]++
	r := c.entry(id, m, c.now)
	c.running.push(r)
	c.start(r, org)
	c.runningPerOrg[org]++
	if !c.noStarts {
		c.starts = append(c.starts, Start{Job: id, Org: org, Machine: m, At: c.now})
	}
}

// Step processes the single earliest pending event of a cluster alone on
// its queues: release, advance, dispatch. It reports whether an event
// existed at or before `until`. A release of a non-member's job is an
// event that starts nothing here.
func (c *Cluster) Step(until model.Time) bool {
	e := c.NextEventTime()
	if e == MaxTime || e > until {
		return false
	}
	c.q.AdvanceTo(e)
	c.AdvanceTo(e)
	c.Dispatch()
	return true
}

// ValuePoly is one ψsp account as a closed-form function of the
// evaluation time: with finished work (U, S) and the running set
// {(qᵣ, sᵣ)} of machine speeds and start times,
//
//	ψ(t) = t·U − S + Σᵣ qᵣ·(t−sᵣ)(t−sᵣ+1)/2.
//
// The form is exact for any t from the cluster's clock up to, not
// including, its next event: a running job executes q units in every
// slot but possibly its last, which ends it. The cluster keeps every
// account in this form at every instant — a start adds its term, a
// completion swaps the term for the finished window — so reading a
// value never folds anything.
type ValuePoly struct {
	utility.Account       // finished work: U unit slots, S their index sum
	A, B, C         int64 // Σq, Σq·s, Σq·s² over running entries
}

// At evaluates the account at time t. The numerator Σ q(t−s)(t−s+1) is
// a sum of products of consecutive integers, hence even — the division
// is exact.
func (p *ValuePoly) At(t model.Time) int64 {
	tt := int64(t)
	return tt*p.U - p.S + (p.A*tt*tt+(p.A-2*p.B)*tt+(p.C-p.B))/2
}

// Units returns the unit slots executed before t: the finished ones and
// q·(t−s) of each running entry.
func (p *ValuePoly) Units(t model.Time) int64 { return p.U + p.A*int64(t) - p.B }

// run adds the running term of an execution at speed q started at s;
// run(−q, s) takes it back.
func (p *ValuePoly) run(q int64, s model.Time) {
	a := int64(s)
	p.A += q
	p.B += q * a
	p.C += q * a * a
}

// add adds d's terms.
func (p *ValuePoly) add(d *ValuePoly) {
	p.U, p.S, p.A, p.B, p.C = p.U+d.U, p.S+d.S, p.A+d.A, p.B+d.B, p.C+d.C
}

// sub subtracts d's terms.
func (p *ValuePoly) sub(d *ValuePoly) {
	p.U, p.S, p.A, p.B, p.C = p.U-d.U, p.S-d.S, p.A-d.A, p.B-d.B, p.C-d.C
}

// ValueAt returns the coalition value at any t from Now up to, not
// including, NextEventTime — what the value will be if nothing happens
// before t.
func (c *Cluster) ValueAt(t model.Time) int64 { return c.total.At(t) }

// FlowValueAt is ValueAt of a cluster in free flow: the offset's value
// plus the members' ledger values, a subset sum (releaseStarts.valueOf),
// after folding the ledger's completions up to t. The offset's running
// terms cancel, so its At numerator is 0, and the sum of the values is
// the value of the sum.
func (c *Cluster) FlowValueAt(t model.Time) int64 {
	f := c.q.starts
	f.fold(c.inst.Jobs, t)
	return c.total.At(t) + f.valueOf(c.coal, t)
}

// Psi returns organization org's ψsp at the current time.
func (c *Cluster) Psi(org int) int64 { return c.orgAcct[org].At(c.now) }

// PsiVector returns every organization's ψsp at the current time.
func (c *Cluster) PsiVector() []int64 {
	out := make([]int64, len(c.orgAcct))
	for i := range out {
		out[i] = c.Psi(i)
	}
	return out
}

// Value returns the coalition value v(C, now) = Σ ψsp (Section 2).
func (c *Cluster) Value() int64 { return c.ValueAt(c.now) }

// ExecutedUnits returns the total executed unit slots before now — the
// paper's p_tot when evaluated on the reference schedule.
func (c *Cluster) ExecutedUnits() int64 { return c.total.Units(c.now) }

// Starts returns the recorded scheduling decisions in start order; nil
// after DiscardStarts.
func (c *Cluster) Starts() []Start { return c.starts }

// DiscardStarts makes the cluster keep no decision log and no
// machine-owner accounts: Starts stays nil, CaptureState carries
// neither, and View.OwnerPsi panics. For a schedule kept only for its
// value: the accounts are all a finished job leaves (ψsp = t·U − S).
// Call it before the first step.
func (c *Cluster) DiscardStarts() { c.noStarts, c.ownAcct = true, nil }

// Flow puts a hypothetical schedule (DiscardStarts) on queues that keep
// a release-start ledger into free flow if it qualifies, and reports
// whether it is in free flow: nothing waits in it, its clock is the
// ledger's, the releases are booked, and it runs exactly its members'
// booked running jobs — as many, each started at its release. Its
// running entries then go, and its accounts keep the offset to the
// members' ledger accounts, whose running terms are exactly its own.
func (c *Cluster) Flow() bool {
	f := c.q.starts
	if c.flow || f == nil || !c.noStarts || c.now != f.now || len(f.batch) > 0 {
		return c.flow
	}
	if jobs, _ := c.WaitingAmong(c.coal); jobs > 0 {
		return false
	}
	booked := 0
	for m := uint32(c.coal); m != 0; m &= m - 1 {
		booked += f.running[bits.TrailingZeros32(m)]
	}
	if booked != len(c.running) {
		return false
	}
	for _, r := range c.running {
		if r.Start != c.inst.Jobs[r.Job].Release {
			return false
		}
	}
	for m := uint32(c.coal); m != 0; m &= m - 1 {
		u := bits.TrailingZeros32(m)
		c.orgAcct[u].sub(&f.acct[u])
		c.total.sub(&f.acct[u])
		c.runningPerOrg[u] = 0
	}
	c.running = c.running[:0]
	c.flow = true
	return true
}

// Materialize takes a cluster out of free flow at the ledger's clock:
// its running entries become its members' booked running jobs, on
// machines 0, 1, 2, … in the ledger's heap order (on machines of one
// speed any assignment schedules alike), its accounts the offset plus
// the members' ledger accounts, and its cursors stand past every
// released job but the ones the ledger holds apart, which wait.
func (c *Cluster) Materialize() {
	f := c.q.starts
	c.flow, c.now = false, max(c.now, f.now)
	n := 0
	for _, r := range f.heap {
		if c.coal.Has(c.inst.Jobs[r.Job].Org) {
			r.Machine = int32(n)
			c.running.push(r)
			n++
		}
	}
	if n > len(c.owners) {
		panic(fmt.Sprintf("sim: a cluster in free flow runs %d jobs on %d machines", n, len(c.owners)))
	}
	c.free = c.free[:0]
	for m := len(c.owners) - 1; m >= n; m-- {
		c.free = append(c.free, m)
	}
	for m := uint32(c.coal); m != 0; m &= m - 1 {
		u := bits.TrailingZeros32(m)
		c.orgAcct[u].add(&f.acct[u])
		c.total.add(&f.acct[u])
		c.runningPerOrg[u] = f.running[u]
		c.cursor[u] = c.base[u] + len(c.lists[u]) - f.fresh[u]
	}
}

// Utilization returns the fraction of work capacity (Σ machine speeds ×
// time) used up to the current time.
func (c *Cluster) Utilization() float64 {
	if c.capacity == 0 || c.now == 0 {
		return 0
	}
	return float64(c.ExecutedUnits()) / (float64(c.capacity) * float64(c.now))
}

// runEntry is one executing job in the completion heap. It holds no
// pointer, so a heap swap pays no write barrier and the collector never
// scans the heap. Job and machine are indices into the instance's jobs
// and the pool, which 32 bits hold on every platform.
type runEntry struct {
	End, Start   model.Time
	Job, Machine int32
}

// before reports whether e completes before f: by end, then machine.
func (e *runEntry) before(f *runEntry) bool {
	return e.End < f.End || e.End == f.End && e.Machine < f.Machine
}

// runHeap is a binary min-heap ordered by (end, machine) for
// deterministic completion processing. Both sifts move a hole and write
// the moving entry once, where the hole stops; each level makes the
// comparisons a swap would and moves the same entry, so the array —
// which ClusterState.Running stores in order — is the one a swapping
// heap leaves.
type runHeap []runEntry

func (h *runHeap) push(e runEntry) {
	*h = append(*h, e)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = e
}

func (h *runHeap) pop() runEntry {
	a := *h
	top, n := a[0], len(a)-1
	e := a[n]
	*h = (*h)[:n] // a length store: no write barrier
	if n == 0 {
		return top
	}
	a = a[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && a[r].before(&a[c]) {
			c = r
		}
		if !a[c].before(&e) {
			break
		}
		a[i] = a[c]
		i = c
	}
	a[i] = e
	return top
}
