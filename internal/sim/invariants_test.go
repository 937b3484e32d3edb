package sim

import (
	"encoding/json"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/stats"
)

// randInstance builds a random small instance.
func randInstance(r *rand.Rand, unitJobs bool) *model.Instance {
	k := 1 + r.Intn(4)
	orgs := make([]model.Org, k)
	total := 0
	for i := range orgs {
		orgs[i] = model.Org{Name: string(rune('A' + i)), Machines: r.Intn(3)}
		total += orgs[i].Machines
	}
	if total == 0 {
		orgs[0].Machines = 1
	}
	n := 1 + r.Intn(25)
	jobs := make([]model.Job, n)
	for i := range jobs {
		size := model.Time(1)
		if !unitJobs {
			size = model.Time(1 + r.Intn(9))
		}
		jobs[i] = model.Job{Org: r.Intn(k), Release: model.Time(r.Intn(20)), Size: size}
	}
	return model.MustNewInstance(orgs, jobs)
}

// randPolicy selects a waiting organization pseudo-randomly but
// deterministically from its own seed; every such policy is greedy by
// construction of the engine.
func randPolicy(seed int64) Policy {
	r := rand.New(rand.NewSource(seed))
	return &SelectFunc{
		PolicyName: "random",
		F: func(v *View, _ model.Time, _ int) int {
			var waiting []int
			for org := 0; org < v.Orgs(); org++ {
				if v.Waiting(org) > 0 {
					waiting = append(waiting, org)
				}
			}
			return waiting[r.Intn(len(waiting))]
		},
	}
}

// checkInvariants validates a finished simulation against the model's
// structural rules.
func checkInvariants(t *testing.T, in *model.Instance, c *Cluster) {
	t.Helper()
	starts := c.Starts()
	// 1. Starts respect release times.
	for _, s := range starts {
		if s.At < in.Jobs[s.Job].Release {
			t.Fatalf("job %d started at %d before release %d", s.Job, s.At, in.Jobs[s.Job].Release)
		}
	}
	// 2. No overlap per machine.
	perMachine := map[int][]Start{}
	for _, s := range starts {
		perMachine[s.Machine] = append(perMachine[s.Machine], s)
	}
	for m, ss := range perMachine {
		for i := 1; i < len(ss); i++ {
			prevEnd := ss[i-1].At + in.Jobs[ss[i-1].Job].Size
			if ss[i].At < prevEnd {
				t.Fatalf("machine %d overlap: job %d (ends %d) and job %d (starts %d)",
					m, ss[i-1].Job, prevEnd, ss[i].Job, ss[i].At)
			}
		}
	}
	// 3. FIFO per organization: start order follows job ID order.
	lastID := map[int]int{}
	for _, s := range starts {
		if prev, ok := lastID[s.Org]; ok && s.Job < prev {
			t.Fatalf("org %d FIFO violated: job %d after %d", s.Org, s.Job, prev)
		}
		lastID[s.Org] = s.Job
	}
	// 4. Greediness: no machine idle interval may intersect any job's
	// waiting interval [release, start).
	type interval struct{ lo, hi model.Time }
	horizon := c.now
	var idles []interval
	for m := 0; m < c.view.Machines(); m++ {
		cur := model.Time(0)
		for _, s := range perMachine[m] {
			if s.At > cur {
				idles = append(idles, interval{cur, s.At})
			}
			cur = s.At + in.Jobs[s.Job].Size
		}
		if cur < horizon {
			idles = append(idles, interval{cur, horizon})
		}
	}
	started := map[int]model.Time{}
	for _, s := range starts {
		started[s.Job] = s.At
	}
	for _, j := range in.Jobs {
		if !c.Coalition().Has(j.Org) {
			continue
		}
		lo := j.Release
		hi, ok := started[j.ID]
		if !ok {
			hi = horizon
		}
		for _, idle := range idles {
			a, b := lo, hi
			if idle.lo > a {
				a = idle.lo
			}
			if idle.hi < b {
				b = idle.hi
			}
			if a < b {
				t.Fatalf("greediness violated: job %d waited during machine idle [%d,%d)", j.ID, a, b)
			}
		}
	}
}

func TestSimulatorInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randInstance(r, false)
		c := New(in, in.Grand(), randPolicy(seed+1), stats.NewRand(seed+2))
		run(c, in.Horizon()+5)
		checkInvariants(t, in, c)
		if got := len(c.Starts()); got != len(in.Jobs) {
			t.Fatalf("only %d of %d jobs started by the horizon", got, len(in.Jobs))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Proposition 5.4: with unit-size jobs, every greedy algorithm yields the
// same coalition value at every time moment.
func TestUnitJobValueScheduleIndependent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randInstance(r, true)
		a := New(in, in.Grand(), randPolicy(seed+10), nil)
		b := New(in, in.Grand(), randPolicy(seed+20), nil)
		horizon := in.Horizon() + 3
		for ti := model.Time(0); ti <= horizon; ti++ {
			run(a, ti)
			run(b, ti)
			if a.Value() != b.Value() {
				t.Fatalf("seed %d: values diverge at t=%d: %d vs %d", seed, ti, a.Value(), b.Value())
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Theorem 6.2: every greedy algorithm is 3/4-competitive for resource
// utilization; in particular any two greedy schedules' executed-unit
// counts at any time T are within a factor 4/3 of each other.
func TestGreedyThreeQuartersCompetitive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randInstance(r, false)
		horizon := in.Horizon()
		T := model.Time(1 + r.Int63n(int64(horizon)+1))
		var busies []int64
		for p := 0; p < 4; p++ {
			c := New(in, in.Grand(), randPolicy(seed+int64(p)*7), nil)
			run(c, T)
			busies = append(busies, c.ExecutedUnits())
		}
		lo, hi := busies[0], busies[0]
		for _, b := range busies {
			if b < lo {
				lo = b
			}
			if b > hi {
				hi = b
			}
		}
		// 4·min ≥ 3·max ⇔ min/max ≥ 3/4.
		if 4*lo < 3*hi {
			t.Fatalf("seed %d: utilization ratio %d/%d < 3/4 at T=%d", seed, lo, hi, T)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// drainHorizon returns a horizon by which any greedy schedule of the
// instance has certainly completed everything.
func drainHorizon(in *model.Instance) model.Time {
	var total, maxRelease model.Time
	for _, j := range in.Jobs {
		total += j.Size
		if j.Release > maxRelease {
			maxRelease = j.Release
		}
	}
	return maxRelease + total + 1
}

// queuedJobs lists the IDs currently waiting in any organization's
// queue, ascending.
func queuedJobs(c *Cluster) []int {
	var out []int
	for org := range c.cursor {
		if c.coal.Has(org) {
			out = append(out, c.q.window(org, c.cursor[org])...)
		}
	}
	sort.Ints(out)
	return out
}

// checkWithdrawInvariants validates a fully drained run that saw
// withdrawals. The greediness rule of checkInvariants does not hold for
// a withdrawn job, which waits from its release and never starts, but
// the conservation core must: starts respect releases, no machine
// overlaps, every live member job runs exactly once, no withdrawn job
// ever runs, and the executed unit slots equal exactly the live jobs'
// total work.
func checkWithdrawInvariants(t *testing.T, in *model.Instance, c *Cluster, withdrawn map[int]bool) {
	t.Helper()
	starts := c.Starts()
	seen := map[int]int{}
	perMachine := map[int][]Start{}
	for _, s := range starts {
		if s.At < in.Jobs[s.Job].Release {
			t.Fatalf("job %d started at %d before release %d", s.Job, s.At, in.Jobs[s.Job].Release)
		}
		if withdrawn[s.Job] {
			t.Fatalf("withdrawn job %d started at %d", s.Job, s.At)
		}
		seen[s.Job]++
		perMachine[s.Machine] = append(perMachine[s.Machine], s)
	}
	for _, ss := range perMachine {
		for i := 1; i < len(ss); i++ {
			prevEnd := c.entry(ss[i-1].Job, ss[i-1].Machine, ss[i-1].At).End
			if ss[i].At < prevEnd {
				t.Fatalf("machine %d overlap: job %d (ends %d) and job %d (starts %d)",
					ss[i].Machine, ss[i-1].Job, prevEnd, ss[i].Job, ss[i].At)
			}
		}
	}
	var want int64
	for _, j := range in.Jobs {
		if !c.Coalition().Has(j.Org) || withdrawn[j.ID] {
			continue
		}
		if seen[j.ID] != 1 {
			t.Fatalf("live job %d started %d times after full drain", j.ID, seen[j.ID])
		}
		want += int64(j.Size)
	}
	if got := c.ExecutedUnits(); got != want {
		t.Fatalf("executed %d unit slots, live jobs total %d", got, want)
	}
	if got := c.WithdrawnCount(); got != len(withdrawn) {
		t.Fatalf("cluster reports %d withdrawn jobs, test tracked %d", got, len(withdrawn))
	}
}

// TestWithdrawReinjectConservation: withdrawing queued jobs and
// re-injecting some of them as new jobs — the way migration moves work
// — at arbitrary event times never loses, duplicates or resurrects
// work: whatever the interleaving, the drained schedule runs exactly
// the live jobs, and the withdrawn ID itself is refused for good.
func TestWithdrawReinjectConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randInstance(r, false)
		c := New(in, in.Grand(), randPolicy(seed+1), stats.NewRand(seed+2))
		withdrawn := map[int]bool{}
		var moved []int // withdrawn, not yet re-injected
		horizon := drainHorizon(in)
		for step := 0; step < 300 && c.Step(horizon); step++ {
			if q := queuedJobs(c); len(q) > 0 && r.Intn(3) == 0 {
				id := q[r.Intn(len(q))]
				org := in.Jobs[id].Org
				ok, err := c.Withdraw(org, id)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("queued job %d not withdrawable", id)
				}
				if again, _ := c.Withdraw(org, id); again {
					t.Fatalf("job %d withdrawn twice", id)
				}
				withdrawn[id] = true
				moved = append(moved, id)
			}
			if len(moved) > 0 && r.Intn(4) == 0 {
				i := r.Intn(len(moved))
				old := moved[i]
				moved = append(moved[:i], moved[i+1:]...)
				if c.Inject(old) == nil {
					t.Fatalf("withdrawn job %d re-injected under its own ID", old)
				}
				j := in.Jobs[old]
				j.ID, j.Release = len(in.Jobs), c.now
				in.Jobs = append(in.Jobs, j)
				if err := c.Inject(j.ID); err != nil {
					t.Fatalf("inject job %d: %v", j.ID, err)
				}
			}
		}
		run(c, horizon+drainHorizon(in))
		checkWithdrawInvariants(t, in, c, withdrawn)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// lowestOrgPolicy is a deterministic stateless policy (lowest waiting
// organization wins) for restore-replay comparisons.
func lowestOrgPolicy() Policy {
	return &SelectFunc{
		PolicyName: "lowest",
		F: func(v *View, _ model.Time, _ int) int {
			for org := 0; org < v.Orgs(); org++ {
				if v.Waiting(org) > 0 {
					return org
				}
			}
			panic("no waiting organization")
		},
	}
}

// TestWithdrawCheckpointRoundTrip: a state capture taken right after a
// withdrawal restores into a fresh cluster byte-identically (withdrawn
// list included) and replays the identical future schedule.
func TestWithdrawCheckpointRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(3000 + seed))
		in := randInstance(r, false)
		a := New(in, in.Grand(), lowestOrgPolicy(), nil)
		run(a, in.Horizon()/2)
		q := queuedJobs(a)
		if len(q) == 0 {
			continue
		}
		id := q[len(q)/2]
		if ok, err := a.Withdraw(in.Jobs[id].Org, id); err != nil || !ok {
			t.Fatalf("seed %d: withdraw queued job %d: ok=%v err=%v", seed, id, ok, err)
		}
		st := a.CaptureState()
		b := New(in, in.Grand(), lowestOrgPolicy(), nil)
		if err := b.RestoreState(st); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		aj, err := json.Marshal(a.CaptureState())
		if err != nil {
			t.Fatal(err)
		}
		bj, err := json.Marshal(b.CaptureState())
		if err != nil {
			t.Fatal(err)
		}
		if string(aj) != string(bj) {
			t.Fatalf("seed %d: restored capture differs:\n%s\nvs\n%s", seed, aj, bj)
		}
		horizon := drainHorizon(in)
		run(a, horizon)
		run(b, horizon)
		as, bs := a.Starts(), b.Starts()
		if len(as) != len(bs) {
			t.Fatalf("seed %d: %d vs %d starts after restore", seed, len(as), len(bs))
		}
		for i := range as {
			if as[i] != bs[i] {
				t.Fatalf("seed %d: start %d differs: %+v vs %+v", seed, i, as[i], bs[i])
			}
		}
	}
}

// TestWithdrawArgumentValidation pins the Withdraw error/no-op surface.
func TestWithdrawArgumentValidation(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1}, {Name: "B", Machines: 1}},
		[]model.Job{
			{Org: 0, Release: 0, Size: 3},
			{Org: 0, Release: 0, Size: 3},
			{Org: 0, Release: 0, Size: 3},
			{Org: 1, Release: 5, Size: 2},
		},
	)
	c := New(in, in.Grand(), lowestOrgPolicy(), nil)
	run(c, 0) // jobs 0,1 start (two machines), job 2 queues, job 3 pending
	if _, err := c.Withdraw(0, 99); err == nil {
		t.Error("unknown job accepted")
	}
	if _, err := c.Withdraw(1, 2); err == nil {
		t.Error("mismatched organization accepted")
	}
	if ok, err := c.Withdraw(0, 0); ok || err != nil {
		t.Errorf("running job withdrawable: ok=%v err=%v", ok, err)
	}
	if ok, err := c.Withdraw(0, 2); !ok || err != nil {
		t.Fatalf("queued job not withdrawable: ok=%v err=%v", ok, err)
	}
	if ok, err := c.Withdraw(1, 3); !ok || err != nil {
		t.Fatalf("pending job not withdrawable: ok=%v err=%v", ok, err)
	}
	if got := c.WithdrawnCount(); got != 2 {
		t.Fatalf("withdrawn count %d, want 2", got)
	}
	// Non-member organizations are ignored, mirroring Inject.
	solo := New(in, model.Singleton(0), lowestOrgPolicy(), nil)
	if ok, err := solo.Withdraw(1, 3); ok || err != nil {
		t.Errorf("non-member withdraw: ok=%v err=%v", ok, err)
	}
}

// FuzzClusterAccounting drives an arbitrary byte-directed interleaving
// of event stepping, withdrawals and batches of arrivals on identical
// or related machines. After each operation it holds every account to
// the from-scratch oracle up to the next event, Contested to a recount
// of the queues, the queues to checkQueues and the free machines to
// checkFreeStack (a third of the seeds reorder the machines they
// dispatch to, as DIRECTCONTR does); then it drains and checks the conservation
// invariants — for the corners a uniform RNG rarely hits (withdraw
// storms, empty queues, completions on fast machines, arrivals due at
// the clock).
func FuzzClusterAccounting(f *testing.F) {
	f.Add(int64(1), []byte{0, 4, 8, 1, 2, 5})
	f.Add(int64(7), []byte{1, 1, 1, 2, 2, 2, 0, 0})
	f.Add(int64(42), []byte{})
	f.Add(int64(3), []byte{3, 0, 15, 1, 0, 7, 2, 11, 0, 0})
	f.Add(int64(-36), []byte{48}) // a reordered dispatch that leaves machines free
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		r := rand.New(rand.NewSource(seed))
		in := randInstance(r, false)
		if seed%2 != 0 {
			withSpeeds(r, in)
		}
		p := randPolicy(seed + 1)
		if seed%3 == 0 {
			p = &machineReverser{p}
		}
		c := New(in, in.Grand(), p, stats.NewRand(seed+2))
		withdrawn := map[int]bool{}
		horizon := drainHorizon(in)
		if len(ops) > 256 {
			ops = ops[:256]
		}
		for _, b := range ops {
			stepped := false
			switch q := queuedJobs(c); {
			case b%2 == 0:
				stepped = c.Step(horizon)
			case b%4 == 3:
				// 1 to 4 arrivals due within 5 ticks of the clock, in the
				// order r shuffles them into.
				batch := make([]int, 1+int(b/4)%4)
				for i := range batch {
					batch[i] = len(in.Jobs)
					in.Jobs = append(in.Jobs, model.Job{ID: batch[i], Org: r.Intn(len(in.Orgs)), Release: c.now + model.Time(r.Intn(6)), Size: model.Time(1 + r.Intn(9))})
				}
				r.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
				if err := c.Inject(batch...); err != nil {
					t.Fatal(err)
				}
			case len(q) > 0:
				id := q[int(b/2)%len(q)]
				ok, err := c.Withdraw(in.Jobs[id].Org, id)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("queued job %d not withdrawable", id)
				}
				withdrawn[id] = true
			}
			jobs, orgs := 0, model.Coalition(0)
			for org := range in.Orgs {
				if w := c.view.Waiting(org); w > 0 {
					jobs, orgs = jobs+w, orgs.With(org)
				}
			}
			if gotJobs, gotOrgs := c.Waiting(); gotJobs != jobs || gotOrgs != orgs {
				t.Fatalf("Waiting() = %d jobs of %v, the queues hold %d of %v", gotJobs, gotOrgs, jobs, orgs)
			}
			checkFreeStack(t, c)
			checkAccountsToNextEvent(t, c, horizon)
			checkQueues(t, c.q, stepped)
		}
		run(c, drainHorizon(in))
		checkAccountsToNextEvent(t, c, horizon)
		checkWithdrawInvariants(t, in, c, withdrawn)
	})
}

// checkFreeStack holds the free machines to the stack dispatch pops:
// exactly the pool machines no running job holds, strictly descending,
// so that the lowest ID is on top and the machines are taken in
// ascending order. Dispatch restores the order after a MachineOrderer,
// so it holds under every policy.
func checkFreeStack(t *testing.T, c *Cluster) {
	t.Helper()
	busy := make([]bool, len(c.owners))
	for _, r := range c.running {
		busy[r.Machine] = true
	}
	for i, m := range c.free {
		if m < 0 || m >= len(c.owners) || busy[m] || i > 0 && c.free[i-1] <= m {
			t.Fatalf("free machines %v are not a strictly descending stack of idle pool machines (%d machines, %d running)", c.free, len(c.owners), len(c.running))
		}
	}
	if len(c.free)+len(c.running) != len(c.owners) {
		t.Fatalf("%d machines free and %d running in a pool of %d", len(c.free), len(c.running), len(c.owners))
	}
}

// The Figure 7 pair is exactly tight: ratio 3/4. Keep it as the extremal
// witness for the bound above.
func TestFigure7IsTight(t *testing.T) {
	a := New(figure7Instance(), model.Grand(2), orgPriority(1, 0), nil)
	run(a, 6)
	b := New(figure7Instance(), model.Grand(2), orgPriority(0, 1), nil)
	run(b, 6)
	if 4*b.ExecutedUnits() != 3*a.ExecutedUnits() {
		t.Fatalf("Figure 7 not tight: %d vs %d", b.ExecutedUnits(), a.ExecutedUnits())
	}
}
