package sim

import (
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
	c.Run(5)

	in.Jobs = append(in.Jobs, model.Job{ID: 1, Org: 0, Release: 10, Size: 3})
	if err := c.Inject(1); err != nil {
		t.Fatal(err)
	}
	if got := c.NextEventTime(); got != 10 {
		t.Fatalf("next event = %d, want the injected release 10", got)
	}
	c.Run(30)
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
	c.Run(6)

	if err := c.Inject(7); err == nil {
		t.Error("unknown job ID accepted")
	}
	in.Jobs = append(in.Jobs, model.Job{ID: 1, Org: 0, Release: 3, Size: 1})
	if err := c.Inject(1); err == nil {
		t.Error("past release accepted")
	}
	// A non-member's job is ignored without error (mirrors New).
	in.Jobs = append(in.Jobs, model.Job{ID: 2, Org: 1, Release: 10, Size: 1})
	if err := c.Inject(2); err != nil {
		t.Errorf("non-member injection errored: %v", err)
	}
	if got := c.NextEventTime(); got != MaxTime {
		t.Errorf("non-member injection created an event at %d", got)
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
	run := func(pause model.Time) *Cluster {
		c := New(in, in.Grand(), fifoByID(), nil)
		c.Run(pause)
		st := c.CaptureState()
		restored := New(in, in.Grand(), fifoByID(), nil)
		if err := restored.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		restored.Run(40)
		return restored
	}
	want := New(in, in.Grand(), fifoByID(), nil)
	want.Run(40)
	for pause := model.Time(0); pause <= 12; pause++ {
		got := run(pause)
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

func TestRestoreRejectsMismatchedState(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1}, {Name: "B", Machines: 1}},
		[]model.Job{{Org: 0, Release: 0, Size: 1}},
	)
	c := New(in, in.Grand(), fifoByID(), nil)
	st := c.CaptureState()

	other := New(in, model.Singleton(0), fifoByID(), nil)
	if err := other.RestoreState(st); err == nil {
		t.Error("coalition mismatch accepted")
	}
	bad := st
	bad.ReleaseOrder = []int{99}
	if err := c.RestoreState(bad); err == nil {
		t.Error("unknown job in release order accepted")
	}
	bad = st
	bad.Free = nil
	if err := c.RestoreState(bad); err == nil {
		t.Error("machine count mismatch accepted")
	}
	bad = st
	bad.Free = nil
	bad.Running = []RunEntryState{{End: 5, Machine: 0, Job: 999}}
	if err := c.RestoreState(bad); err == nil {
		t.Error("running entry with unknown job accepted")
	}
	for name, free := range map[string][]int{
		"free machine out of range": {0, 999},
		"negative free machine":     {0, -1},
		"duplicated free machine":   {1, 1},
	} {
		bad = st
		bad.Free = free
		if err := c.RestoreState(bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	bad = st
	bad.Free = []int{0}
	bad.Running = []RunEntryState{{End: 5, Machine: 0, Job: 0}}
	if err := c.RestoreState(bad); err == nil {
		t.Error("machine both free and running accepted")
	}
	bad = st
	bad.Free = nil
	bad.Running = []RunEntryState{{End: 5, Machine: 1, Job: 0}, {End: 6, Machine: 1, Job: 0}}
	if err := c.RestoreState(bad); err == nil {
		t.Error("two running entries on one machine accepted")
	}
	bad = st
	bad.Queues = [][]int{nil, {0}} // job 0 belongs to org 0, queued under org 1
	if err := c.RestoreState(bad); err == nil {
		t.Error("job queued under wrong organization accepted")
	}
	bad = st
	bad.Queues = [][]int{{42}, nil}
	if err := c.RestoreState(bad); err == nil {
		t.Error("queue with unknown job accepted")
	}
	bad = st
	bad.Starts = []Start{{Job: 42}}
	if err := c.RestoreState(bad); err == nil {
		t.Error("decision log with unknown job accepted")
	}
}
