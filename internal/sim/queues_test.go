package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
)

// checkQueues holds q to its layout, independently of how it got there:
// the pending list is strictly by (Release, ID), entered and not before
// the latest instant released up to; each organization's list holds
// released jobs of its own by release; no job is in two places; and an
// organization's entered jobs are its pending ones, its listed ones and
// base more — the prefix every member cluster has started past — with
// the withdrawn ones in none of them. released reports that the
// operation checked released the queues to q.now, so that nothing due
// by then may still be pending (a job injected later may be).
func checkQueues(t *testing.T, q *Queues, released bool) {
	t.Helper()
	jobs := q.inst.Jobs
	unplaced := make([]int, len(q.lists)) // org -> entered jobs in no list
	for id, m := range q.mark {
		if m == entered {
			unplaced[jobs[id].Org]++
		}
	}
	placed := make([]bool, len(q.mark))
	place := func(id int, where string) {
		t.Helper()
		if q.mark[id] != entered || placed[id] {
			t.Fatalf("job %d (mark %d) in the %s is not entered, or is in two places", id, q.mark[id], where)
		}
		placed[id] = true
		unplaced[jobs[id].Org]--
	}
	for i, id := range q.pending {
		place(id, "pending list")
		if r := jobs[id].Release; r < q.now || released && r == q.now || i > 0 && !releaseLess(jobs, q.pending[i-1], id) {
			t.Fatalf("pending list %v: job %d released at %d, due by %d or out of (release, ID) order", q.pending, id, r, q.now)
		}
	}
	for u, list := range q.lists {
		for i, id := range list {
			place(id, "released lists")
			if j := jobs[id]; j.Org != u || j.Release > q.now || i > 0 && j.Release < jobs[list[i-1]].Release {
				t.Fatalf("organization %d's list %v: job %d of organization %d released at %d, after %d or out of release order", u, list, id, j.Org, j.Release, q.now)
			}
		}
		if unplaced[u] != q.base[u] {
			t.Fatalf("organization %d has %d entered jobs in no list, %d trimmed", u, unplaced[u], q.base[u])
		}
		for _, c := range q.clusters {
			if c.coal.Has(u) && (c.cursor[u] < q.base[u] || c.cursor[u] > q.base[u]+len(list)) {
				t.Fatalf("cluster of %v: organization %d's cursor %d outside [%d, %d]", c.coal, u, c.cursor[u], q.base[u], q.base[u]+len(list))
			}
		}
	}
}

// FuzzSharedQueues holds clusters that share one Queues to the same
// coalitions each built by New alone on whole-instance queues its driver
// releases: 2 to 4 distinct coalitions, driven by a byte-coded
// interleaving of steps to the next common instant, shuffled batches of
// arrivals, a re-injection of a job that has entered, and withdrawals
// of a pending job, of a queued one and of one another cluster has
// already started. After every operation each pair's capture is
// byte-equal — the shared layout stores, releases, starts and withdraws
// exactly what a lone cluster's does — and every Queues passes
// checkQueues, which catches what both sides would get wrong alike. The
// shared queues keep a release-start ledger, and one kind of step ends
// by holding its subset-sum tables (Overflows, Overloaded, the value
// table) to direct sums for a random coalition (checkReleaseStarts), and
// those of a second, stepped ledger of up to 30 organizations.
func FuzzSharedQueues(f *testing.F) {
	f.Add(int64(1), []byte{0, 2, 0, 3, 7, 11, 0, 1, 6, 15, 0})
	f.Add(int64(2), []byte{2, 2, 0, 1, 3, 0, 7, 0, 11, 1, 19, 23})
	f.Add(int64(5), []byte{6, 0, 0, 10, 1, 15, 7, 0, 0, 27, 31, 35, 1})
	f.Add(int64(9), []byte{})
	// Withdraws a pending job released at the clock, tied on release with
	// a released job of its organization.
	f.Add(int64(19), []byte{0x7a, 0xa3, 0xd5, 0xf2, 0x16, 0x2f, 0xb3, 0x03, 0x7e, 0xf7, 0x26, 0x21, 0x33, 0xf2, 0x62})
	// Injects a job released at the clock straight after a withdrawal.
	f.Add(int64(13), []byte{0xc4, 0xc1, 0x63, 0x6e, 0x92, 0xc0, 0x10, 0xd4, 0x0e, 0xcb, 0xd7, 0xe7})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		r := rand.New(rand.NewSource(seed))
		in := randInstance(r, false)
		for len(in.Orgs) < 2 {
			in = randInstance(r, false)
		}
		masks := make([]model.Coalition, 0, 4)
		for _, m := range r.Perm(int(in.Grand())) {
			masks = append(masks, model.Coalition(m+1))
		}
		masks = masks[:min(len(masks), 2+r.Intn(3))]
		q := NewQueues(in)
		if !q.KeepReleaseStarts(true) { // randInstance's machines all run at speed 1
			t.Fatal("no release-start ledger on identical machines")
		}
		// The ledger checks draw from their own stream, so r's draws are
		// what they were without them, and check a second ledger too, of
		// up to 30 organizations.
		lr := rand.New(rand.NewSource(^seed))
		wide := NewQueues(identicalStream(lr, 1+lr.Intn(30), 1+lr.Intn(80), 30))
		wide.KeepReleaseStarts(true)
		var wideAt model.Time
		shared, lone := make([]*Cluster, len(masks)), make([]*Cluster, len(masks))
		for i, mask := range masks {
			shared[i] = q.NewCluster(mask, randPolicy(seed+int64(i)), nil)
			lone[i] = New(in, mask, randPolicy(seed+int64(i)), nil)
		}
		check := func(op string) {
			t.Helper()
			checkQueues(t, q, op == "a step")
			for i := range shared {
				checkQueues(t, lone[i].q, op == "a step")
				s, _ := json.Marshal(shared[i].CaptureState())
				p, _ := json.Marshal(lone[i].CaptureState())
				if !bytes.Equal(s, p) {
					t.Fatalf("after %s, cluster of %v on shared queues:\n%s\nalone on its queues:\n%s", op, masks[i], s, p)
				}
			}
		}
		// unstarted lists what cluster i has not started: its queued jobs,
		// then its pending ones.
		unstarted := func(i int) []int {
			st := lone[i].CaptureState()
			return append(slices.Concat(st.Queues...), st.ReleaseOrder...)
		}
		if len(ops) > 256 {
			ops = ops[:256]
		}
		for _, b := range ops {
			x, arg := int(b>>2)%len(masks), int(b>>4)
			switch b % 4 {
			case 0, 1: // step every cluster to the next instant any has; 1 then checks the ledgers
				at, atLone := MaxTime, MaxTime
				for i := range shared {
					at, atLone = min(at, shared[i].NextEventTime()), min(atLone, lone[i].NextEventTime())
				}
				if at != atLone {
					t.Fatalf("next instant %d on shared queues, %d on lone ones", at, atLone)
				}
				if at == MaxTime {
					continue
				}
				q.AdvanceTo(at)
				for i := range shared {
					lone[i].q.AdvanceTo(at) // its driver releases its queues first
					for _, c := range []*Cluster{shared[i], lone[i]} {
						c.AdvanceTo(at)
						c.Dispatch()
					}
				}
				check("a step")
				if b%4 == 1 {
					// Then the ledger's tables against direct sums, for a random
					// coalition: these queues' at the clock, with the releases
					// held apart; the wide queues' at their next release, held
					// apart and booked.
					checkReleaseStarts(t, q, at, []model.Coalition{model.Coalition(lr.Uint32()) & in.Grand()})
					if next := wide.NextRelease(); next != MaxTime {
						coals := []model.Coalition{model.Coalition(lr.Uint32()) & wide.inst.Grand()}
						wide.AdvanceTo(next)
						checkReleaseStarts(t, wide, wideAt, coals)
						wide.BookReleases()
						checkReleaseStarts(t, wide, next, coals)
						wideAt = next
					}
				}
			case 2: // a shuffled batch of 1 to 4 arrivals, or a job that has entered
				now := shared[0].Now()
				if arg%4 == 3 {
					id := arg % len(in.Jobs)
					err := q.Inject(id)
					for i := range lone {
						if perr := lone[i].Inject(id); (perr != nil) != (err != nil) {
							t.Fatalf("re-injecting job %d: %v on shared queues, %v on lone ones", id, err, perr)
						}
					}
					if err == nil {
						t.Fatalf("job %d re-entered", id)
					}
					check("a refused re-injection")
					continue
				}
				batch := make([]int, 1+arg%4)
				for j := range batch {
					batch[j] = len(in.Jobs)
					in.Jobs = append(in.Jobs, model.Job{ID: batch[j], Org: r.Intn(len(in.Orgs)), Release: now + model.Time(r.Intn(6)), Size: model.Time(1 + r.Intn(9))})
				}
				r.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
				if err := q.Inject(batch...); err != nil {
					t.Fatal(err)
				}
				for _, c := range lone {
					if err := c.Inject(batch...); err != nil {
						t.Fatal(err)
					}
				}
				check("a batch of arrivals")
			case 3: // withdraw through cluster x a job it has not started
				var pick []int
				switch st := lone[x].CaptureState(); arg % 3 {
				case 0: // pending
					pick = st.ReleaseOrder
				case 1: // queued
					pick = slices.Concat(st.Queues...)
				case 2: // one another member cluster has started
					others := make([][]int, len(lone))
					for y := range lone {
						others[y] = unstarted(y)
					}
					for _, id := range others[x] {
						for y := range lone {
							if y != x && masks[y].Has(in.Jobs[id].Org) && !slices.Contains(others[y], id) {
								pick = append(pick, id)
								break
							}
						}
					}
				}
				if len(pick) == 0 {
					continue
				}
				id := pick[arg%len(pick)]
				org := in.Jobs[id].Org
				ok, err := shared[x].Withdraw(org, id)
				if err != nil || !ok {
					t.Fatalf("job %d, unstarted in cluster %v, not withdrawn from the shared queues: %v", id, masks[x], err)
				}
				// Through a lone cluster that has it unstarted; from the others'
				// queues, which hold it too, their driver withdraws it itself.
				for _, c := range lone {
					ok, err := c.Withdraw(org, id)
					if err != nil {
						t.Fatal(err)
					}
					if pos, found := c.q.find(org, id); !ok && found {
						c.q.withdraw(org, pos)
					}
				}
				check("a withdrawal")
			}
		}
	})
}

// A cluster on shared queues that has started none of an organization's
// jobs holds its whole list; the others' starts do not trim it, and
// once it catches up the list drops what every cluster started, so a
// long run keeps the lists as short as the deepest queue.
func TestSharedQueuesTrimToSlowestCluster(t *testing.T) {
	in := model.MustNewInstance([]model.Org{{Name: "A", Machines: 1}, {Name: "B", Machines: 0}}, nil)
	q := NewQueues(in)
	fast := q.NewCluster(in.Grand(), lowestOrgPolicy(), nil)
	idle := q.NewCluster(model.Singleton(1), lowestOrgPolicy(), nil) // no machine
	step := func() {
		at := min(fast.NextEventTime(), idle.NextEventTime())
		q.AdvanceTo(at)
		for _, c := range []*Cluster{fast, idle} {
			c.AdvanceTo(at)
			c.Dispatch()
		}
	}
	for i := 0; i < 300; i++ {
		j := model.Job{ID: len(in.Jobs), Org: i % 2, Release: model.Time(i), Size: 1}
		in.Jobs = append(in.Jobs, j)
		if err := q.Inject(j.ID); err != nil {
			t.Fatal(err)
		}
		step()
	}
	if got := len(q.lists[0]); got >= 2*minTrim {
		t.Errorf("organization 0's list holds %d jobs, every cluster started all but the last", got)
	}
	if got, want := len(q.lists[1]), 150; got != want || idle.View().Waiting(1) != want {
		t.Errorf("organization 1's list holds %d jobs, %d wait in the machineless cluster; want %d", got, idle.View().Waiting(1), want)
	}
	if got := fast.View().Waiting(1); got != 0 {
		t.Errorf("%d of organization 1's jobs wait on the cluster with a machine", got)
	}
}

// checkReleaseStarts holds q's release-start ledger tables to direct
// sums over its per-organization counts and accounts: Overloaded to the
// organizations whose booked running jobs and held releases outnumber
// their machines, and for each coalition Overflows to the same count
// summed over its members against their machines, and the value table
// at `at` to the value at `at` of the sum of their accounts. The tables
// are caches of those sums, so they must agree at any instant asked,
// the ledger's clock or an earlier one.
func checkReleaseStarts(t *testing.T, q *Queues, at model.Time, coals []model.Coalition) {
	t.Helper()
	f := q.starts
	var over model.Coalition
	for u, n := range f.running {
		if n+f.fresh[u] > q.inst.Orgs[u].Machines {
			over = over.With(u)
		}
	}
	if got := q.Overloaded(); got != over {
		t.Fatalf("at %d (ledger at %d): overloaded organizations %v, direct count %v", at, f.now, got, over)
	}
	for _, coal := range coals {
		jobs, machines := 0, 0
		var sum ValuePoly
		for m := uint32(coal); m != 0; m &= m - 1 {
			u := bits.TrailingZeros32(m)
			jobs += f.running[u] + f.fresh[u]
			machines += q.inst.Orgs[u].Machines
			sum.add(&f.acct[u])
		}
		if got, want := q.Overflows(coal), jobs > machines; got != want {
			t.Fatalf("at %d: coalition %v runs and holds %d jobs on %d machines, Overflows %v", at, coal, jobs, machines, got)
		}
		if got, want := f.valueOf(coal, at), sum.At(at); got != want {
			t.Fatalf("at %d (ledger at %d): coalition %v's value table reads %d, its accounts sum to %d", at, f.now, coal, got, want)
		}
	}
}

// identicalStream builds k organizations of 0 to 3 machines of speed 1
// and n jobs released in [0, horizon), sizes 1 to 12: busy enough that
// releases overload organizations and coalitions.
func identicalStream(r *rand.Rand, k, n int, horizon model.Time) *model.Instance {
	orgs := make([]model.Org, k)
	for u := range orgs {
		orgs[u] = model.Org{Name: fmt.Sprint("O", u), Machines: r.Intn(4)}
	}
	orgs[0].Machines++
	jobs := make([]model.Job, n)
	for i := range jobs {
		jobs[i] = model.Job{Org: r.Intn(k), Release: model.Time(r.Int63n(int64(horizon))), Size: model.Time(1 + r.Intn(12))}
	}
	return model.MustNewInstance(orgs, jobs)
}

// On machines of one speed a coalition's pool is its members' machines,
// so the ledger answers Overflows and a free-flow value as subset sums
// over chunks of four organizations. At every release instant of
// identical-machine streams whose organization counts straddle the
// chunk edges, the tables agree with direct sums for every coalition
// (k ≤ 9) or 10⁴ random ones (k = 30): while the releases are held apart
// (the overflow test, and the values at the previous release instant,
// after the fold past it), and once they are booked (the values at the
// instant).
func TestReleaseStartSubsetSums(t *testing.T) {
	for _, k := range []int{1, 3, 4, 5, 8, 9, 30} {
		t.Run(fmt.Sprint("k=", k), func(t *testing.T) { checkSubsetSumsOver(t, k) })
	}
}

// checkSubsetSumsOver runs TestReleaseStartSubsetSums on a stream of k
// organizations.
func checkSubsetSumsOver(t *testing.T, k int) {
	r := rand.New(rand.NewSource(int64(k)))
	in := identicalStream(r, k, 20*k, 60)
	q := NewQueues(in)
	if !q.KeepReleaseStarts(true) {
		t.Fatal("no release-start ledger on identical machines")
	}
	var coals []model.Coalition
	if k <= 9 {
		for c := model.Coalition(1); c <= in.Grand(); c++ {
			coals = append(coals, c)
		}
	}
	overloaded, prev := 0, model.Time(0)
	for at := q.NextRelease(); at != MaxTime; at = q.NextRelease() {
		if k > 9 {
			coals = coals[:0]
			for len(coals) < 10000 {
				coals = append(coals, model.Coalition(r.Uint32())&in.Grand())
			}
		}
		q.AdvanceTo(at)
		checkReleaseStarts(t, q, prev, coals)
		if q.Overloaded() != 0 {
			overloaded++
		}
		q.BookReleases()
		checkReleaseStarts(t, q, at, coals)
		prev = at
	}
	if overloaded == 0 {
		t.Error("no release instant overloaded an organization")
	}
}
