package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/utility"
)

// orgPriority prefers organizations in the given fixed order.
func orgPriority(order ...int) Policy {
	return &SelectFunc{
		PolicyName: "priority",
		F: func(v *View, _ model.Time, _ int) int {
			for _, org := range order {
				if v.Waiting(org) > 0 {
					return org
				}
			}
			panic("no waiting org")
		},
	}
}

func TestSingleMachineSequence(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1}},
		[]model.Job{
			{Org: 0, Release: 0, Size: 3},
			{Org: 0, Release: 0, Size: 2},
			{Org: 0, Release: 10, Size: 1},
		},
	)
	c := New(in, in.Grand(), orgPriority(0), nil)
	c.Run(20)
	starts := c.Starts()
	if len(starts) != 3 {
		t.Fatalf("starts = %+v", starts)
	}
	wantAt := []model.Time{0, 3, 10}
	for i, s := range starts {
		if s.At != wantAt[i] {
			t.Errorf("start %d at %d, want %d", i, s.At, wantAt[i])
		}
		if s.Machine != 0 {
			t.Errorf("start %d on machine %d", i, s.Machine)
		}
	}
	// ψsp must match the direct closed form.
	want := utility.Psi([]utility.Execution{{Start: 0, Size: 3}, {Start: 3, Size: 2}, {Start: 10, Size: 1}}, 20)
	if got := c.Psi(0); got != want {
		t.Errorf("Psi = %d, want %d", got, want)
	}
	if got := c.ExecutedUnits(); got != 6 {
		t.Errorf("ExecutedUnits = %d", got)
	}
	if got := c.Value(); got != want {
		t.Errorf("Value = %d, want %d", got, want)
	}
}

func TestFIFOWithinOrganization(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 2}},
		[]model.Job{
			{Org: 0, Release: 0, Size: 5},
			{Org: 0, Release: 0, Size: 1},
			{Org: 0, Release: 0, Size: 1},
		},
	)
	c := New(in, in.Grand(), orgPriority(0), nil)
	c.Run(10)
	starts := c.Starts()
	// Job IDs must start in increasing order (FIFO).
	for i := 1; i < len(starts); i++ {
		if starts[i].Job < starts[i-1].Job {
			t.Fatalf("FIFO violated: %+v", starts)
		}
	}
	// The size-5 and first size-1 job start at 0; the second size-1 at 1.
	if starts[2].At != 1 {
		t.Errorf("third start at %d, want 1", starts[2].At)
	}
}

func TestNonClairvoyantView(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1}},
		[]model.Job{{Org: 0, Release: 2, Size: 9}},
	)
	c := New(in, in.Grand(), orgPriority(0), nil)
	v := &c.view
	if _, _, ok := v.Head(0); ok {
		t.Fatal("Head visible before release")
	}
	c.q.AdvanceTo(2) // the driver releases the queues, then advances the cluster
	c.AdvanceTo(2)
	id, rel, ok := v.Head(0)
	if !ok || id != 0 || rel != 2 {
		t.Fatalf("Head = (%d,%d,%v)", id, rel, ok)
	}
	if v.Waiting(0) != 1 {
		t.Fatal("waiting counter wrong")
	}
	c.Dispatch()
	if v.Waiting(0) != 0 || v.Running(0) != 1 {
		t.Fatal("dispatch did not move the job to running")
	}
}

// Figure 7 of the paper: 4 processors, four size-3 jobs of O(1) and two
// size-6 jobs of O(2), all released at 0. Starting O(2) first yields
// 100% utilization at T=6; starting O(1) first leaves two processors
// idle in [3,6) — 18/24 = 75%. This is the tight example behind the
// 3/4-competitiveness bound of Theorem 6.2.
func figure7Instance() *model.Instance {
	return model.MustNewInstance(
		[]model.Org{{Name: "O1", Machines: 2}, {Name: "O2", Machines: 2}},
		[]model.Job{
			{Org: 0, Release: 0, Size: 3},
			{Org: 0, Release: 0, Size: 3},
			{Org: 0, Release: 0, Size: 3},
			{Org: 0, Release: 0, Size: 3},
			{Org: 1, Release: 0, Size: 6},
			{Org: 1, Release: 0, Size: 6},
		},
	)
}

func TestFigure7Utilization(t *testing.T) {
	a := New(figure7Instance(), model.Grand(2), orgPriority(1, 0), nil)
	a.Run(6)
	if got := a.Utilization(); got != 1.0 {
		t.Errorf("O2-first utilization at 6 = %v, want 1.0 (paper, Figure 7a)", got)
	}
	b := New(figure7Instance(), model.Grand(2), orgPriority(0, 1), nil)
	b.Run(6)
	if got := b.Utilization(); got != 0.75 {
		t.Errorf("O1-first utilization at 6 = %v, want 0.75 (paper, Figure 7b)", got)
	}
}

func TestRunIsResumable(t *testing.T) {
	in := figure7Instance()
	whole := New(in, model.Grand(2), orgPriority(0, 1), nil)
	whole.Run(9)
	stepped := New(in, model.Grand(2), orgPriority(0, 1), nil)
	for ti := model.Time(1); ti <= 9; ti++ {
		stepped.Run(ti)
	}
	if whole.Value() != stepped.Value() {
		t.Errorf("resumed run diverged: %d vs %d", stepped.Value(), whole.Value())
	}
	if len(whole.Starts()) != len(stepped.Starts()) {
		t.Errorf("start counts diverged")
	}
}

func TestCoalitionRestriction(t *testing.T) {
	in := figure7Instance()
	c := New(in, model.Singleton(0), orgPriority(0), nil)
	c.Run(100)
	if got := len(c.Starts()); got != 4 {
		t.Fatalf("singleton coalition started %d jobs, want 4", got)
	}
	if c.view.Machines() != 2 {
		t.Fatalf("singleton coalition has %d machines", c.view.Machines())
	}
	if c.Psi(1) != 0 {
		t.Fatal("non-member accrued utility")
	}
	// O1 alone: 4 size-3 jobs on 2 machines: starts at 0,0,3,3.
	want := utility.Psi([]utility.Execution{
		{Start: 0, Size: 3}, {Start: 0, Size: 3}, {Start: 3, Size: 3}, {Start: 3, Size: 3},
	}, 100)
	if got := c.Psi(0); got != want {
		t.Fatalf("Psi(0) = %d, want %d", got, want)
	}
}

func TestMachineOwnersAndShares(t *testing.T) {
	in := figure7Instance()
	c := New(in, model.Grand(2), orgPriority(0, 1), nil)
	v := &c.view
	if v.Machines() != 4 {
		t.Fatalf("machines = %d", v.Machines())
	}
	if v.Share(0) != 0.5 || v.Share(1) != 0.5 {
		t.Fatalf("shares = %v/%v", v.Share(0), v.Share(1))
	}
}

func TestOwnerAccounting(t *testing.T) {
	// One machine owned by B; only A has jobs. A gets the utility, B the
	// contribution.
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 0}, {Name: "B", Machines: 1}},
		[]model.Job{{Org: 0, Release: 0, Size: 4}},
	)
	c := New(in, in.Grand(), orgPriority(0, 1), nil)
	c.Run(10)
	if got := c.Psi(0); got != utility.PsiJob(0, 4, 10) {
		t.Errorf("A's ψ = %d", got)
	}
	if got := c.Psi(1); got != 0 {
		t.Errorf("B's ψ = %d, want 0", got)
	}
	v := &c.view
	if got := v.OwnerPsi(1); got != utility.PsiJob(0, 4, 10) {
		t.Errorf("B's owner-ψ = %d", got)
	}
	if got := v.OwnerPsi(0); got != 0 {
		t.Errorf("A's owner-ψ = %d, want 0", got)
	}

	// A schedule kept only for its value books no machine-owner account,
	// so asking it for one is a programming error — while the job
	// owner's account and the value are the same as above.
	silent := New(in, in.Grand(), orgPriority(0, 1), nil)
	silent.DiscardStarts()
	silent.Run(10)
	if silent.Psi(0) != c.Psi(0) || silent.Value() != c.Value() {
		t.Errorf("without machine-owner accounts: ψ %d, value %d; want %d, %d", silent.Psi(0), silent.Value(), c.Psi(0), c.Value())
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "OwnerPsi") {
			t.Errorf("OwnerPsi on a cluster without machine-owner accounts: recovered %v, want a panic naming it", r)
		}
	}()
	silent.view.OwnerPsi(1)
}

func TestEmptyCoalitionPool(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 0}, {Name: "B", Machines: 1}},
		[]model.Job{{Org: 0, Release: 0, Size: 4}},
	)
	// Coalition {A} has a job but no machines: nothing ever runs.
	c := New(in, model.Singleton(0), orgPriority(0), nil)
	c.Run(50)
	if c.Value() != 0 || len(c.Starts()) != 0 {
		t.Fatalf("machine-less coalition ran jobs: value=%d", c.Value())
	}
	if c.view.Waiting(0) != 1 {
		t.Fatal("job should still be queued")
	}
}

func TestPanicOnBadPolicy(t *testing.T) {
	in := figure7Instance()
	bad := &SelectFunc{PolicyName: "bad", F: func(*View, model.Time, int) int { return 1 }}
	c := New(in, model.Singleton(0), bad, nil) // org 1 never has jobs here
	defer func() {
		if recover() == nil {
			t.Fatal("engine did not reject selection of org without waiting jobs")
		}
	}()
	c.Run(10)
}

// placed converts the recorded schedule to utility.Placed records, for
// the classic metrics: org's jobs only, or everyone's for a negative
// org. On related machines Size is the realized processing time ⌈p/q⌉
// on the assigned machine, so completion times stay correct.
func placed(c *Cluster, org int) []utility.Placed {
	var out []utility.Placed
	for _, s := range c.Starts() {
		if org >= 0 && s.Org != org {
			continue
		}
		j := c.inst.Jobs[s.Job]
		q := model.Time(c.speeds[s.Machine])
		out = append(out, utility.Placed{Release: j.Release, Start: s.At, Size: (j.Size + q - 1) / q})
	}
	return out
}

func TestPlacedExport(t *testing.T) {
	in := figure7Instance()
	c := New(in, model.Grand(2), orgPriority(1, 0), nil)
	c.Run(20)
	all := placed(c, -1)
	if len(all) != 6 {
		t.Fatalf("Placed(-1) = %d records", len(all))
	}
	var busy int64
	for _, p := range all {
		busy += utility.ExecutedUnits(p.Start, p.Size, 20)
	}
	if busy != int64(in.TotalWork()) {
		t.Fatalf("busy units = %d, want %d", busy, in.TotalWork())
	}
	o2 := placed(c, 1)
	if len(o2) != 2 || o2[0].Size != 6 {
		t.Fatalf("Placed(1) = %+v", o2)
	}
}

func TestAdvanceToPanicsOnPast(t *testing.T) {
	in := figure7Instance()
	c := New(in, model.Grand(2), orgPriority(0, 1), nil)
	c.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo into the past did not panic")
		}
	}()
	c.AdvanceTo(2)
}
