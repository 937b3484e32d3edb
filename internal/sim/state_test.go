package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/model"
)

// fifoByID starts the waiting job with the globally smallest ID.
func fifoByID() Policy {
	return &SelectFunc{
		PolicyName: "fifo",
		F: func(v *View, _ model.Time, _ int) int {
			best, bestID := -1, 0
			for org := 0; org < v.Orgs(); org++ {
				if id, _, ok := v.Head(org); ok && (best == -1 || id < bestID) {
					best, bestID = org, id
				}
			}
			return best
		},
	}
}

// Injecting a job whose release precedes already-pending future
// releases must slot it into release order: the injected job (released
// earlier) runs before the batch job that was known from the start.
func TestInjectBeforePendingRelease(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1}},
		[]model.Job{{Org: 0, Release: 20, Size: 2}},
	)
	c := New(in, in.Grand(), fifoByID(), nil)
	run(c, 5)

	in.Jobs = append(in.Jobs, model.Job{ID: 1, Org: 0, Release: 10, Size: 3})
	if err := c.Inject(1); err != nil {
		t.Fatal(err)
	}
	if got := c.NextEventTime(); got != 10 {
		t.Fatalf("next event = %d, want the injected release 10", got)
	}
	run(c, 30)
	starts := c.Starts()
	if len(starts) != 2 {
		t.Fatalf("%d starts, want 2", len(starts))
	}
	if starts[0].Job != 1 || starts[0].At != 10 {
		t.Fatalf("injected job should start first at 10: %+v", starts[0])
	}
	if starts[1].Job != 0 || starts[1].At != 20 {
		t.Fatalf("batch job should start at its release 20: %+v", starts[1])
	}
}

func TestInjectValidation(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1}, {Name: "B", Machines: 0}},
		[]model.Job{{Org: 0, Release: 0, Size: 2}},
	)
	c := New(in, model.Singleton(0), fifoByID(), nil)
	run(c, 6)

	if err := c.Inject(7); err == nil {
		t.Error("unknown job ID accepted")
	}
	in.Jobs = append(in.Jobs, model.Job{ID: 1, Org: 0, Release: 3, Size: 1})
	if err := c.Inject(1); err == nil {
		t.Error("past release accepted")
	}
	// A non-member's job enters without error; its release is a step
	// that starts nothing here.
	in.Jobs = append(in.Jobs, model.Job{ID: 2, Org: 1, Release: 10, Size: 1})
	if err := c.Inject(2); err != nil {
		t.Errorf("non-member injection errored: %v", err)
	}
	before := slices.Clone(c.Starts())
	run(c, 20)
	if !slices.Equal(c.Starts(), before) {
		t.Errorf("non-member injection moved the starts: %v, were %v", c.Starts(), before)
	}
	// A job the cluster holds is refused, here job 0, started at 0.
	if err := c.Inject(0); err == nil || !strings.Contains(err.Error(), "already entered") {
		t.Errorf("started job re-injected: %v", err)
	}

	// A pending job entered again would be queued once per Inject and
	// started as many times.
	twice := model.MustNewInstance([]model.Org{{Name: "A", Machines: 2}}, []model.Job{{Org: 0, Release: 5, Size: 2}})
	d := New(twice, twice.Grand(), fifoByID(), nil)
	for range 2 {
		if err := d.Inject(0); err == nil || !strings.Contains(err.Error(), "already entered") {
			t.Errorf("pending job re-injected: %v", err)
		}
	}
	run(d, 20)
	if len(d.Starts()) != 1 {
		t.Errorf("job 0 started %d times: %v", len(d.Starts()), d.Starts())
	}
}

// injectFixture is a cluster of organizations A and B — C is not a
// member — standing at time 5 with releases still pending at 7 and 9,
// and a batch of arrivals appended to its instance: release ties with
// each other and with the pending jobs, a release at the clock, and two
// jobs of the non-member.
func injectFixture() (*Cluster, []int) {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 2}, {Name: "B", Machines: 1}, {Name: "C", Machines: 1}},
		[]model.Job{
			{Org: 0, Release: 0, Size: 9},
			{Org: 1, Release: 0, Size: 9},
			{Org: 0, Release: 1, Size: 9},
			{Org: 0, Release: 3, Size: 2},
			{Org: 1, Release: 7, Size: 2},
			{Org: 0, Release: 9, Size: 1},
			{Org: 2, Release: 9, Size: 1},
		},
	)
	c := New(in, model.Grand(3).Without(2), fifoByID(), nil)
	run(c, 5)
	var batch []int
	for _, j := range []model.Job{
		{Org: 1, Release: 9, Size: 3},
		{Org: 0, Release: 5, Size: 2},
		{Org: 2, Release: 6, Size: 1},
		{Org: 0, Release: 7, Size: 4},
		{Org: 1, Release: 5, Size: 1},
		{Org: 0, Release: 12, Size: 2},
		{Org: 1, Release: 7, Size: 2},
		{Org: 2, Release: 5, Size: 3},
		{Org: 0, Release: 9, Size: 1},
	} {
		j.ID = len(in.Jobs)
		in.Jobs = append(in.Jobs, j)
		batch = append(batch, j.ID)
	}
	return c, batch
}

// One Inject of a whole batch, in any order, leaves the cluster exactly
// as one Inject per job does: the pending releases are the members in
// (release, ID) order, and the runs go on alike.
func TestInjectBatchMatchesPerJob(t *testing.T) {
	perJob, batch := injectFixture()
	for _, id := range batch {
		if err := perJob.Inject(id); err != nil {
			t.Fatal(err)
		}
	}
	want, err := json.Marshal(perJob.CaptureState())
	if err != nil {
		t.Fatal(err)
	}
	if pending := perJob.CaptureState().ReleaseOrder; fmt.Sprint(pending) != "[8 11 4 10 13 5 7 15 12]" {
		t.Fatalf("pending releases %v, want the members in (release, ID) order", pending)
	}
	run(perJob, 60)
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		c, batch := injectFixture()
		if trial == 0 {
			slices.SortFunc(batch, c.q.compare) // merged as given
		} else {
			r.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		}
		if err := c.Inject(batch...); err != nil {
			t.Fatal(err)
		}
		if got, _ := json.Marshal(c.CaptureState()); !bytes.Equal(got, want) {
			t.Fatalf("batch %v captured\n%s\nwant\n%s", batch, got, want)
		}
		run(c, 60)
		if got, want := fmt.Sprint(c.Starts(), c.PsiVector()), fmt.Sprint(perJob.Starts(), perJob.PsiVector()); got != want {
			t.Fatalf("batch %v ran\n%s\nwant\n%s", batch, got, want)
		}
	}
}

// A batch with one bad ID is refused whole, with the error a single
// Inject of that ID gives, and the cluster's state does not move.
func TestInjectBatchAllOrNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(c *Cluster) int
		want string
	}{
		{"out of range", func(c *Cluster) int { return len(c.inst.Jobs) + 3 }, "not in instance"},
		{"released before the clock", func(c *Cluster) int {
			c.inst.Jobs = append(c.inst.Jobs, model.Job{ID: len(c.inst.Jobs), Org: 1, Release: 4, Size: 1})
			return len(c.inst.Jobs) - 1
		}, "before current time 5"},
		{"withdrawn", func(c *Cluster) int {
			if ok, err := c.Withdraw(1, 4); !ok || err != nil {
				t.Fatalf("pending job 4 not withdrawable: %v", err)
			}
			return 4
		}, "was withdrawn"},
		{"pending", func(c *Cluster) int { return 5 }, "already entered"},
		{"queued", func(c *Cluster) int {
			if w := c.view.Waiting(0); w != 1 {
				t.Fatalf("organization 0 has %d jobs waiting, want job 3 alone", w)
			}
			return 3
		}, "already entered"},
		{"started", func(c *Cluster) int { return 0 }, "already entered"},
	} {
		c, batch := injectFixture()
		bad := tc.bad(c)
		before, _ := json.Marshal(c.CaptureState())
		single := c.Inject(bad)
		mixed := append(append(append([]int(nil), batch[:4]...), bad), batch[4:]...)
		err := c.Inject(mixed...)
		if err == nil || single == nil || err.Error() != single.Error() || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: batch error %v, single-job error %v, want both to say %q", tc.name, err, single, tc.want)
		}
		if after, _ := json.Marshal(c.CaptureState()); !bytes.Equal(after, before) {
			t.Fatalf("%s: a refused batch moved the state:\n%s\nwas\n%s", tc.name, after, before)
		}
	}
	// A new job given twice in one batch is refused too.
	c, batch := injectFixture()
	before, _ := json.Marshal(c.CaptureState())
	if err := c.Inject(batch[1], batch[0], batch[3], batch[0]); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("a batch naming job %d twice: %v", batch[0], err)
	}
	if after, _ := json.Marshal(c.CaptureState()); !bytes.Equal(after, before) {
		t.Fatalf("a refused batch moved the state:\n%s\nwas\n%s", after, before)
	}
}

// State capture/restore round-trips through an identically built
// cluster: the restored simulation finishes exactly like the original.
func TestCaptureRestoreMidRun(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1, Speeds: []int{2}}, {Name: "B", Machines: 1}},
		[]model.Job{
			{Org: 0, Release: 0, Size: 5},
			{Org: 1, Release: 1, Size: 4},
			{Org: 0, Release: 2, Size: 3},
			{Org: 1, Release: 8, Size: 2},
		},
	)
	resume := func(pause model.Time) *Cluster {
		c := New(in, in.Grand(), fifoByID(), nil)
		run(c, pause)
		st := c.CaptureState()
		restored := New(in, in.Grand(), fifoByID(), nil)
		if err := restored.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		run(restored, 40)
		return restored
	}
	want := New(in, in.Grand(), fifoByID(), nil)
	run(want, 40)
	for pause := model.Time(0); pause <= 12; pause++ {
		got := resume(pause)
		if len(got.Starts()) != len(want.Starts()) {
			t.Fatalf("pause %d: %d starts, want %d", pause, len(got.Starts()), len(want.Starts()))
		}
		for i := range want.Starts() {
			if got.Starts()[i] != want.Starts()[i] {
				t.Fatalf("pause %d: start %d = %+v, want %+v", pause, i, got.Starts()[i], want.Starts()[i])
			}
		}
		for org := 0; org < 2; org++ {
			if got.Psi(org) != want.Psi(org) {
				t.Fatalf("pause %d: ψ[%d] = %d, want %d", pause, org, got.Psi(org), want.Psi(org))
			}
		}
		if got.Value() != want.Value() {
			t.Fatalf("pause %d: value %d, want %d", pause, got.Value(), want.Value())
		}
	}
}

// runSet drives every cluster on q to until as a schedule set does: the
// queues are released at each instant before any cluster there advances
// and dispatches.
func runSet(q *Queues, until model.Time) {
	for {
		at := MaxTime
		for _, c := range q.clusters {
			at = min(at, c.NextEventTime())
		}
		if at > until {
			break
		}
		q.AdvanceTo(at)
		for _, c := range q.clusters {
			c.AdvanceTo(at)
			c.Dispatch()
		}
	}
	q.AdvanceTo(until)
	for _, c := range q.clusters {
		c.AdvanceTo(until)
	}
}

// hypotheticalSlot builds a cluster of coal that keeps no decision log
// on fresh queues, behind a decision schedule restored from decision
// first — as a schedule set restores its slots.
func hypotheticalSlot(t *testing.T, inst *model.Instance, coal model.Coalition, decision ClusterState, p func() Policy) *Cluster {
	t.Helper()
	q := NewQueues(inst)
	c := q.NewCluster(coal, p(), nil)
	c.DiscardStarts()
	if err := q.NewCluster(inst.Grand(), p(), nil).RestoreState(decision); err != nil {
		t.Fatal(err)
	}
	return c
}

// midRunCluster stops a two-machine run with a job in every place a
// member job can be: 0 and 1 running (and in the decision log, unless
// the cluster keeps none), 2 queued, 3 withdrawn from its queue, 4
// pending. A cluster that keeps no log is a hypothetical slot on the
// queues of a decision schedule stepped beside it.
func midRunCluster(discard bool) *Cluster {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1}, {Name: "B", Machines: 1}},
		[]model.Job{
			{Org: 0, Release: 0, Size: 5},
			{Org: 1, Release: 0, Size: 5},
			{Org: 0, Release: 1, Size: 2},
			{Org: 1, Release: 1, Size: 2},
			{Org: 0, Release: 9, Size: 1},
		},
	)
	q := NewQueues(in)
	c := q.NewCluster(in.Grand(), fifoByID(), nil)
	if discard {
		c.DiscardStarts()
		q.NewCluster(in.Grand(), fifoByID(), nil)
	}
	runSet(q, 2)
	if ok, err := c.Withdraw(1, 3); !ok || err != nil {
		panic("job 3 is not withdrawable")
	}
	return c
}

// cloneState deep-copies a capture through its serialized form, adding
// the given raw keys to the document first.
func cloneState(t *testing.T, st ClusterState, extra map[string]string) ClusterState {
	t.Helper()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	doc := map[string]json.RawMessage{}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for k, v := range extra {
		doc[k] = json.RawMessage(v)
	}
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	var out ClusterState
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRestoreRejectsMismatchedState(t *testing.T) {
	c := midRunCluster(false)
	st, hyp := c.CaptureState(), midRunCluster(true).CaptureState()
	if len(st.Running) != 0 || len(st.OrgAcct) != 0 || len(st.Starts) != 2 || len(st.Queues[0]) != 1 || len(st.Withdrawn) != 1 || len(st.ReleaseOrder) != 1 {
		t.Fatalf("the fixture no longer holds a job in every list, or stores what its log says: %+v", st)
	}
	if len(hyp.Running) != 2 || len(hyp.OrgAcct) != 2 || len(hyp.Starts) != 0 || hyp.QueueState != nil || fmt.Sprint(hyp.Waiting) != "[1 0]" {
		t.Fatalf("the log-less fixture does not store its running entries, accounts and waiting counts alone: %+v", hyp)
	}
	if err := New(c.inst, model.Singleton(0), fifoByID(), nil).RestoreState(st); err == nil {
		t.Error("coalition mismatch accepted")
	}
	for _, table := range []struct {
		into   *Cluster
		clean  ClusterState
		doctor map[string]func(*ClusterState)
	}{
		{c, st, map[string]func(*ClusterState){
			"unknown job in release order":  func(s *ClusterState) { s.ReleaseOrder[0] = 99 },
			"job queued under another org":  func(s *ClusterState) { s.Queues[0], s.Queues[1] = nil, []int{2} },
			"queue with unknown job":        func(s *ClusterState) { s.Queues[0] = []int{42} },
			"decision log with unknown job": func(s *ClusterState) { s.Starts[0].Job = 42 },
			"organization count":            func(s *ClusterState) { s.Queues = s.Queues[:1] },
			"no queues":                     func(s *ClusterState) { s.QueueState = nil },
			// The decision log against the other lists: engine.Waiting is
			// jobs − starts − withdrawn, so each of these restored a wrong
			// backlog before the partition check.
			"decision log cut short":           func(s *ClusterState) { s.Starts = s.Starts[:1] },
			"decision log emptied":             func(s *ClusterState) { s.Starts = nil },
			"job started twice":                func(s *ClusterState) { s.Starts = append(s.Starts, s.Starts[0]) },
			"queued job in the decision log":   func(s *ClusterState) { s.Starts = append(s.Starts, Start{Job: 2, At: 1}) },
			"job neither started nor anywhere": func(s *ClusterState) { s.Queues[0] = nil },
			"job pending and queued":           func(s *ClusterState) { s.ReleaseOrder = append(s.ReleaseOrder, 2) },
			"job queued and withdrawn":         func(s *ClusterState) { s.Withdrawn = append(s.Withdrawn, 2) },
			"job queued twice":                 func(s *ClusterState) { s.Queues[0] = []int{2, 2} },
			"two logged jobs on a machine":     func(s *ClusterState) { s.Starts[1].Machine = 0 },
			// Both logged jobs end at 5: at 7 machine 0 idles while job 2 waits.
			"machine idle while a job waits": func(s *ClusterState) { s.Now = 7 },
		}},
		{hypotheticalSlot(t, c.inst, c.coal, st, fifoByID), hyp, map[string]func(*ClusterState){
			"running entry with unknown job":    func(s *ClusterState) { s.Running[0].Job = 999 },
			"running entry on unknown machine":  func(s *ClusterState) { s.Running[0].Machine = 2 },
			"two running entries on a machine":  func(s *ClusterState) { s.Running[1].Machine = s.Running[0].Machine },
			"completion in the clock's past":    func(s *ClusterState) { s.Now = 7 },
			"start after the clock":             func(s *ClusterState) { s.Running[0].Start = 3 },
			"running entries out of heap order": func(s *ClusterState) { s.Running[0].Start = 1 },
			"organization count":                func(s *ClusterState) { s.OrgAcct = s.OrgAcct[:1] },
			"job running twice":                 func(s *ClusterState) { s.Running[1].Job = s.Running[0].Job },
			"negative finished work":            func(s *ClusterState) { s.OrgAcct[0].U = -1 },
			// What only the decision schedule writes.
			"queues":           func(s *ClusterState) { s.QueueState = &QueueState{Queues: make([][]int, 2)} },
			"a pending list":   func(s *ClusterState) { s.QueueState = &QueueState{ReleaseOrder: []int{4}} },
			"a decision log":   func(s *ClusterState) { s.Starts = []Start{{Job: 0}} },
			"a withdrawn list": func(s *ClusterState) { s.Withdrawn = []int{3} },
		}},
	} {
		for name, doctor := range table.doctor {
			bad := cloneState(t, table.clean, nil)
			doctor(&bad)
			if err := table.into.RestoreState(bad); err == nil {
				t.Errorf("%s accepted", name)
			}
		}
		if err := table.into.RestoreState(table.clean); err != nil {
			t.Fatalf("the undoctored capture is refused: %v", err)
		}
	}

	// A pending release the clock has passed was answered as due now and
	// served late: job 4, released at 1 in this copy of the instance.
	early := &model.Instance{Orgs: c.inst.Orgs, Jobs: append([]model.Job(nil), c.inst.Jobs...)}
	early.Jobs[4].Release = 1
	if err := New(early, early.Grand(), fifoByID(), nil).RestoreState(st); err == nil {
		t.Error("pending release before the clock accepted")
	}

	// The decision log is read back too — by /decisions, by a federation's
	// own log: four instants later jobs 0 and 1 have finished, 2 runs on
	// machine 0 since 5, and each line is held to the pool, to
	// [release, now], to the order starts are made in, and to the
	// machine's previous job. (All of these restored before the check.)
	run(c, 6)
	st = c.CaptureState()
	if len(st.Starts) != 3 || st.Starts[2] != (Start{Job: 2, Org: 0, Machine: 0, At: 5}) || len(c.running) != 1 {
		t.Fatalf("the later fixture is not two finished jobs and a running one: %+v", st)
	}
	for name, doctor := range map[string]func(*ClusterState){
		"finished job on a machine outside the pool": func(s *ClusterState) { s.Starts[1].Machine = -7 },
		"finished job on a machine past the pool":    func(s *ClusterState) { s.Starts[1].Machine = 2 },
		"start after the clock":                      func(s *ClusterState) { s.Starts[1].At = 123456 },
		"start before the release":                   func(s *ClusterState) { s.Starts[0].At = -1 },
		"log out of start order":                     func(s *ClusterState) { s.Starts[0].At = 3 },
		"running job started before its machine was": func(s *ClusterState) { s.Starts[2].At = 4 },
	} {
		bad := cloneState(t, st, nil)
		doctor(&bad)
		if err := c.RestoreState(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A start's organization is its job's: the capture does not carry it,
	// and one that does is not believed.
	data, err := json.Marshal(st)
	if err != nil || bytes.Contains(data, []byte("Org")) {
		t.Fatalf("a capture writes a start's organization (err %v): %s", err, data)
	}
	st.Starts[2].Org = 99
	if err := c.RestoreState(st); err != nil || c.Starts()[2].Org != 0 {
		t.Fatalf("restored start %+v (err %v), want job 2's organization 0", c.Starts()[2], err)
	}
}

// What a capture does not write — a free list, per-organization running
// counts, a total account, a flush mark, machine-owner accounts, a
// running entry's end and fold mark — is not read, nor, where a
// decision log is kept, running entries and accounts: whatever they
// say, the restored cluster is the one the other fields describe.
func TestRestoreRecomputesDerivedFields(t *testing.T) {
	c := midRunCluster(false)
	clean := c.CaptureState()
	want, err := json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}
	doctored := cloneState(t, clean, map[string]string{
		"free":            `[999,-1,0,0]`,
		"running_per_org": `[7]`,
		"total":           `{"U":123456,"S":-9}`,
		"flushed_at":      `77`,
		"running":         `[{"end":-4,"machine":1,"job":4,"start":-9,"acc_from":1}]`,
		"org_acct":        `[{"U":5,"S":-5}]`,
		"own_acct":        `[]`,
	})
	restored := New(c.inst, c.coal, fifoByID(), nil)
	if err := restored.RestoreState(doctored); err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(restored.CaptureState()); !bytes.Equal(got, want) {
		t.Fatalf("restored from doctored derived fields:\n%s\nwant\n%s", got, want)
	}
	if v := &restored.view; restored.Value() != c.Value() || v.Running(0) != 1 || v.Running(1) != 1 || len(restored.free) != 0 {
		t.Fatalf("value %d (want %d), running %d and %d, free %v", restored.Value(), c.Value(), v.Running(0), v.Running(1), restored.free)
	}
	run(c, 40)
	run(restored, 40)
	if got, want := fmt.Sprint(restored.Starts(), restored.PsiVector(), restored.Value()), fmt.Sprint(c.Starts(), c.PsiVector(), c.Value()); got != want {
		t.Fatalf("restored run ended\n%s\nwant\n%s", got, want)
	}

	hyp := midRunCluster(true).CaptureState()
	wantHyp, _ := json.Marshal(hyp)
	var running []map[string]any
	if data, err := json.Marshal(hyp.Running); err != nil || json.Unmarshal(data, &running) != nil {
		t.Fatal(err)
	}
	for _, r := range running {
		r["end"], r["acc_from"] = -4, 1
	}
	entries, err := json.Marshal(running)
	if err != nil {
		t.Fatal(err)
	}
	garbage := cloneState(t, hyp, map[string]string{"running": string(entries), "own_acct": `[{"U":999,"S":-3}]`})
	into := hypotheticalSlot(t, c.inst, c.coal, clean, fifoByID)
	if err := into.RestoreState(garbage); err != nil {
		t.Fatalf("a cluster without a decision log read an entry's end, a fold mark or owner accounts: %v", err)
	}
	if got, _ := json.Marshal(into.CaptureState()); !bytes.Equal(got, wantHyp) {
		t.Fatalf("a cluster without a decision log re-captured\n%s\nwant\n%s", got, wantHyp)
	}
	run(into, 40)
	if into.Starts() != nil || into.Value() != c.Value() {
		t.Fatalf("log-less run: starts %v, value %d, want none and %d", into.Starts(), into.Value(), c.Value())
	}
}

// doctorNode returns the decoded JSON tree v with its n-th value — in
// document order, object keys sorted — replaced by edit's result, and
// how many values it walked (the whole tree when n is past the end).
func doctorNode(v any, n int, edit func(any) any) (any, int) {
	if n == 0 {
		return edit(v), 1
	}
	seen := 1
	walk := func(child any) any {
		child, m := doctorNode(child, n-seen, edit)
		seen += m
		return child
	}
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if seen > n {
				break
			}
			x[k] = walk(x[k])
		}
	case []any:
		for i := 0; i < len(x) && seen <= n; i++ {
			x[i] = walk(x[i])
		}
	}
	return v, seen
}

// releaseStartDocument runs the fifteen coalition schedules of four
// organizations of one machine each on shared queues, every one but the
// grand coalition's a hypothetical schedule, to 8 and captures them, in
// mask order. By then A's two jobs have run from 0 on {A, B}'s two
// machines and B's job, released at 1, from 4: that schedule is written
// as its release-start schedule with an offset to B's finished work.
func releaseStartDocument(f testing.TB) (doc struct {
	Orgs     []model.Org
	Jobs     []model.Job
	Clusters []json.RawMessage
}) {
	const until = 8
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1}, {Name: "B", Machines: 1}, {Name: "C", Machines: 1}, {Name: "D", Machines: 1}},
		[]model.Job{{Org: 0, Release: 0, Size: 4}, {Org: 0, Release: 0, Size: 4}, {Org: 1, Release: 1, Size: 2}, {Org: 2, Release: 2, Size: 9}, {Org: 3, Release: 3, Size: 1}},
	)
	q := NewQueues(in)
	var set []*Cluster
	for coal := model.Coalition(1); coal <= in.Grand(); coal++ {
		c := q.NewCluster(coal, lowestOrgPolicy(), nil)
		if coal != in.Grand() {
			c.DiscardStarts()
		}
		set = append(set, c)
	}
	for {
		at := MaxTime
		for _, c := range set {
			at = min(at, c.NextEventTime())
		}
		if at > until {
			break
		}
		q.AdvanceTo(at)
		for _, c := range set {
			c.AdvanceTo(at)
			c.Dispatch()
		}
	}
	for _, c := range set {
		c.AdvanceTo(until)
		data, err := json.Marshal(c.CaptureState())
		if err != nil {
			f.Fatal(err)
		}
		doc.Clusters = append(doc.Clusters, data)
	}
	if ab := string(doc.Clusters[2]); !strings.Contains(ab, `"at_release":true,"org_acct":[`) {
		f.Fatalf("the schedule of {A, B} is not written as its release-start schedule with an offset: %s", ab)
	}
	doc.Orgs, doc.Jobs = in.Orgs, in.Jobs
	return doc
}

// A hypothetical schedule's finished work is never negative, in either
// form a capture writes it: the schedule of {A, B} that
// releaseStartDocument writes as its release-start schedule restores
// from its full form and re-captures compact, and with organization
// A's finished work below zero it is refused in both forms. (The full
// form was accepted once, and the session's own re-capture, compacted,
// was then refused: restore was no fixed point.)
func TestRestoreRefusesNegativeFinishedWork(t *testing.T) {
	doc := releaseStartDocument(t)
	var decision, compact ClusterState
	if json.Unmarshal(doc.Clusters[len(doc.Clusters)-1], &decision) != nil || json.Unmarshal(doc.Clusters[2], &compact) != nil {
		t.Fatal("the document does not decode")
	}
	in := &model.Instance{Orgs: doc.Orgs, Jobs: doc.Jobs}
	c := hypotheticalSlot(t, in, compact.Coalition, decision, lowestOrgPolicy)
	full := cloneState(t, compact, nil)
	if err := c.expand(&full); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreState(full); err != nil {
		t.Fatalf("the full form is refused: %v", err)
	}
	if got, _ := json.Marshal(c.CaptureState()); !bytes.Equal(got, doc.Clusters[2]) {
		t.Fatalf("the full form re-captures as\n%s\nwant\n%s", got, doc.Clusters[2])
	}
	for form, st := range map[string]ClusterState{"full": full, "compact": compact} {
		bad := cloneState(t, st, nil)
		bad.OrgAcct[0].U -= full.OrgAcct[0].U + 1
		if err := c.RestoreState(bad); err == nil || !strings.Contains(err.Error(), "finished work") {
			t.Errorf("the %s form with negative finished work: restore answered %v, want a refusal", form, err)
		}
	}
}

// FuzzClusterRestore hands RestoreState doctored captures — numbers
// overwritten, arrays cut short or stretched — of the third schedule
// (the only one of the round-robin document) in each mid-run checkpoint
// committed under internal/core/testdata — the round-robin decision
// schedule, RAND's schedule of {B}, NBS's of {C} and REF's of {A, B},
// on related machines — and of the schedule of {A, B} that
// releaseStartDocument writes as its release-start schedule with a
// finished-work offset. A cluster that keeps no decision log — a
// hypothetical schedule, or the round-robin one with discard — is a
// hypothetical slot on queues the undoctored decision schedule rebuilds
// first. RestoreState refuses, or its free machines are the stack
// checkFreeStack describes — after the restore and after every drain
// step — every start it serves is on a pool machine at an instant ≤ now
// and the restored cluster drains without a panic having executed
// exactly the work the accepted state still owed, every member job
// started once.
func FuzzClusterRestore(f *testing.F) {
	type document struct {
		Orgs     []model.Org
		Jobs     []model.Job
		Clusters []json.RawMessage
		// The decision schedule's and the fuzzed schedule's positions.
		decision, fuzzed int
	}
	var docs []document
	for _, name := range []string{"roundrobin", "rand", "nbs", "ref"} {
		data, err := os.ReadFile("../core/testdata/ckpt_v7_" + name + ".json")
		if err != nil {
			f.Fatal(err)
		}
		doc := document{decision: -1}
		if err := json.Unmarshal(data, &doc); err != nil {
			f.Fatalf("%s fixture: %v", name, err)
		}
		for i, raw := range doc.Clusters {
			var st ClusterState
			if err := json.Unmarshal(raw, &st); err != nil {
				f.Fatal(err)
			}
			if st.QueueState != nil {
				doc.decision = i
			}
		}
		if doc.fuzzed = min(2, len(doc.Clusters)-1); doc.decision < 0 {
			f.Fatalf("%s fixture: no decision schedule", name)
		}
		for i := range doc.Jobs {
			doc.Jobs[i].ID = i // a job list does not carry positions
		}
		docs = append(docs, doc)
	}
	rs := releaseStartDocument(f)
	docs = append(docs, document{Orgs: rs.Orgs, Jobs: rs.Jobs, Clusters: rs.Clusters, decision: len(rs.Clusters) - 1, fuzzed: 2})
	for which := range docs {
		f.Add(uint8(which), false, []byte{})
		f.Add(uint8(which), true, []byte{0, 9, 0, 0, 3})
		f.Add(uint8(which), false, []byte{0, 40, 1, 0, 7, 0, 2, 0, 255, 254, 0, 77, 0, 0, 1})
	}
	f.Fuzz(func(t *testing.T, which uint8, discard bool, edits []byte) {
		doc := docs[int(which)%len(docs)]
		var tree any
		dec := json.NewDecoder(bytes.NewReader(doc.Clusters[doc.fuzzed]))
		dec.UseNumber() // keep int64s exact through the round trip
		if err := dec.Decode(&tree); err != nil {
			t.Fatal(err)
		}
		// One edit is five bytes: which value, how, and a small operand.
		if len(edits) > 5*64 {
			edits = edits[:5*64]
		}
		for ; len(edits) >= 5; edits = edits[5:] {
			how, operand := edits[2], int64(int16(binary.BigEndian.Uint16(edits[3:])))
			_, total := doctorNode(tree, math.MaxInt, nil)
			tree, _ = doctorNode(tree, int(binary.BigEndian.Uint16(edits))%total, func(v any) any {
				switch x := v.(type) {
				case json.Number:
					if how%2 == 1 {
						operand <<= 40
					}
					return json.Number(strconv.FormatInt(operand, 10))
				case []any:
					n := int(uint16(operand)) % (len(x) + 3)
					for len(x) < n {
						if len(x) == 0 {
							x = append(x, json.Number("0"))
						} else {
							x = append(x, x[len(x)-1])
						}
					}
					return x[:n]
				}
				return v
			})
		}
		posted, err := json.Marshal(tree)
		if err != nil {
			t.Fatal(err)
		}
		var st ClusterState
		if json.Unmarshal(posted, &st) != nil {
			return // an edit changed a value's type
		}
		in := &model.Instance{Orgs: doc.Orgs, Jobs: doc.Jobs}
		c := New(in, in.Grand(), lowestOrgPolicy(), nil)
		if doc.fuzzed != doc.decision || discard {
			var decision, clean ClusterState
			if json.Unmarshal(doc.Clusters[doc.decision], &decision) != nil || json.Unmarshal(doc.Clusters[doc.fuzzed], &clean) != nil {
				t.Fatal("the undoctored document does not decode")
			}
			c, discard = hypotheticalSlot(t, in, clean.Coalition, decision, lowestOrgPolicy), true
		}
		if c.RestoreState(st) != nil {
			return
		}
		checkFreeStack(t, c)
		// Every start the accepted state serves is on a pool machine, at an
		// instant that has come, for the organization whose job it is.
		for _, s := range c.Starts() {
			if s.Machine < 0 || s.Machine >= len(c.owners) || s.At > c.now || s.Org != in.Jobs[s.Job].Org {
				t.Fatalf("restored with start %+v; %d machines, clock at %d, job of organization %d", s, len(c.owners), c.now, in.Jobs[s.Job].Org)
			}
		}
		// What the accepted state still owes: its unstarted jobs, and the
		// rest of each running one.
		done := c.ExecutedUnits()
		var owed int64
		for _, id := range c.q.pendingOf(c.coal) {
			owed += int64(in.Jobs[id].Size)
		}
		for _, id := range queuedJobs(c) {
			owed += int64(in.Jobs[id].Size)
		}
		for _, r := range c.running {
			owed += int64(in.Jobs[r.Job].Size) - int64(c.speeds[r.Machine])*int64(c.now-r.Start)
		}
		// Every step fires a release or a completion: two per job at most.
		// The queues are released first, as a schedule set does.
		step := func() bool {
			at := c.NextEventTime()
			if at == MaxTime {
				return false
			}
			c.q.AdvanceTo(at)
			c.AdvanceTo(at)
			c.Dispatch()
			checkFreeStack(t, c)
			return true
		}
		for steps := 0; step(); steps++ {
			if steps > 2*len(in.Jobs) {
				t.Fatalf("no drain after %d steps; next event at %d, clock at %d", steps, c.NextEventTime(), c.now)
			}
		}
		if got := c.ExecutedUnits() - done; got != owed {
			t.Fatalf("executed %d units after restore, the restored state owed %d", got, owed)
		}
		if len(c.running) != 0 || len(queuedJobs(c)) != 0 || c.WithdrawnCount() != len(st.Withdrawn) {
			t.Fatalf("drained with %d running, %d waiting, %d withdrawn of %d", len(c.running), len(queuedJobs(c)), c.WithdrawnCount(), len(st.Withdrawn))
		}
		if discard {
			if c.Starts() != nil {
				t.Fatalf("a cluster without a decision log recorded %v", c.Starts())
			}
			return
		}
		started := make([]int, len(in.Jobs))
		for _, s := range c.Starts() {
			started[s.Job]++
		}
		for _, id := range st.Withdrawn {
			started[id]++ // withdrawn for good: never started, so this makes one
		}
		for id, n := range started {
			if n != 1 {
				t.Fatalf("job %d started or withdrawn %d times after the drain", id, n)
			}
		}
	})
}

// A hypothetical schedule on machines of one speed writes its running
// entries by (end, job) on machines 0, 1, 2, …: which machine runs a job
// changes nothing it will do, and one in free flow has no machines of
// its own. On related machines it writes its heap array, on the
// machines the jobs run on. (The last job waits, so the schedule is
// not its release-start one and is written in full.)
func TestHypotheticalCaptureMachines(t *testing.T) {
	jobs := []model.Job{
		{Org: 0, Release: 0, Size: 9},
		{Org: 0, Release: 0, Size: 3},
		{Org: 1, Release: 0, Size: 6},
		{Org: 0, Release: 1, Size: 4},
		{Org: 1, Release: 1, Size: 2},
	}
	for _, speeds := range [][]int{nil, {2, 1, 1}} {
		in := model.MustNewInstance([]model.Org{{Name: "A", Machines: 3, Speeds: speeds}, {Name: "B", Machines: 1}}, jobs)
		c := NewQueues(in).NewCluster(in.Grand(), fifoByID(), nil)
		c.DiscardStarts()
		run(c, 1)
		var want []RunEntryState
		for _, r := range c.running {
			want = append(want, RunEntryState{Job: int(r.Job), Machine: int(r.Machine), Start: r.Start})
		}
		if speeds == nil {
			// Ends 9, 3, 6 and 5: by end on machines 0 to 3.
			want = []RunEntryState{{Job: 1, Machine: 0, Start: 0}, {Job: 3, Machine: 1, Start: 1}, {Job: 2, Machine: 2, Start: 0}, {Job: 0, Machine: 3, Start: 0}}
			if slices.EqualFunc(c.running, want, func(r runEntry, w RunEntryState) bool { return int(r.Job) == w.Job && int(r.Machine) == w.Machine }) {
				t.Fatal("the run already holds its entries in the canonical order: the case tests nothing")
			}
		}
		if got := c.CaptureState().Running; !slices.Equal(got, want) {
			t.Errorf("speeds %v: running entries captured as %+v, want %+v", speeds, got, want)
		}
	}
}
