package sim

import (
	"bytes"
	"encoding/json"
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
// coalitions each built by New on queues of its own: 2 to 4 distinct
// coalitions, driven by a byte-coded interleaving of steps to the next
// common instant, shuffled batches of arrivals, a re-injection of a job
// that has entered, and withdrawals of a pending job, of a queued one
// and of one another cluster has already started. After every operation
// each pair's capture is byte-equal — the shared layout stores, releases,
// starts and withdraws exactly what the private one does — and every
// Queues passes checkQueues, which catches what both sides would get
// wrong alike.
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
		shared, private := make([]*Cluster, len(masks)), make([]*Cluster, len(masks))
		for i, mask := range masks {
			shared[i] = q.NewCluster(mask, randPolicy(seed+int64(i)), nil)
			private[i] = New(in, mask, randPolicy(seed+int64(i)), nil)
		}
		check := func(op string) {
			t.Helper()
			checkQueues(t, q, op == "a step")
			for i := range shared {
				checkQueues(t, private[i].q, op == "a step")
				s, _ := json.Marshal(shared[i].CaptureState())
				p, _ := json.Marshal(private[i].CaptureState())
				if !bytes.Equal(s, p) {
					t.Fatalf("after %s, cluster of %v on shared queues:\n%s\non its own:\n%s", op, masks[i], s, p)
				}
			}
		}
		// unstarted lists what cluster i has not started: its queued jobs,
		// then its pending ones.
		unstarted := func(i int) []int {
			st := private[i].CaptureState()
			return append(slices.Concat(st.Queues...), st.ReleaseOrder...)
		}
		if len(ops) > 256 {
			ops = ops[:256]
		}
		for _, b := range ops {
			x, arg := int(b>>2)%len(masks), int(b>>4)
			switch b % 4 {
			case 0, 1: // step every cluster to the next instant any has
				at, atPrivate := MaxTime, MaxTime
				for i := range shared {
					at, atPrivate = min(at, shared[i].NextEventTime()), min(atPrivate, private[i].NextEventTime())
				}
				if at != atPrivate {
					t.Fatalf("next instant %d on shared queues, %d on private ones", at, atPrivate)
				}
				if at == MaxTime {
					continue
				}
				q.AdvanceTo(at)
				for i := range shared {
					for _, c := range []*Cluster{shared[i], private[i]} {
						c.AdvanceTo(at)
						c.Dispatch()
					}
				}
				check("a step")
			case 2: // a shuffled batch of 1 to 4 arrivals, or a job that has entered
				now := shared[0].Now()
				if arg%4 == 3 {
					id := arg % len(in.Jobs)
					err := q.Inject(id)
					for i := range private {
						if perr := private[i].Inject(id); (perr != nil) != (err != nil) && masks[i].Has(in.Jobs[id].Org) {
							t.Fatalf("re-injecting job %d: %v on shared queues, %v on private ones", id, err, perr)
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
				for _, c := range private {
					if err := c.Inject(batch...); err != nil {
						t.Fatal(err)
					}
				}
				check("a batch of arrivals")
			case 3: // withdraw through cluster x a job it has not started
				var pick []int
				switch st := private[x].CaptureState(); arg % 3 {
				case 0: // pending
					pick = st.ReleaseOrder
				case 1: // queued
					pick = slices.Concat(st.Queues...)
				case 2: // one another member cluster has started
					others := make([][]int, len(private))
					for y := range private {
						others[y] = unstarted(y)
					}
					for _, id := range others[x] {
						for y := range private {
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
				for _, c := range private {
					if _, err := c.Withdraw(org, id); err != nil {
						t.Fatal(err)
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
