package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/utility"
)

// Machines returns the number of machines in the coalition pool.
func (v *View) Machines() int { return len(v.c.owners) }

// MachineSpeed returns machine m's speed (1 on identical machines).
func (v *View) MachineSpeed(m int) int { return v.c.speeds[m] }

// On a speed-q machine a size-p job runs for ⌈p/q⌉ time units and its
// work units complete q per slot (remainder in the last slot). ψsp
// counts work units, each worth t − (its completion slot).
func TestRelatedMachineSingleJob(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1, Speeds: []int{3}}},
		[]model.Job{{Org: 0, Release: 0, Size: 10}},
	)
	c := New(in, in.Grand(), orgPriority(0), nil)
	c.Run(20)
	// Duration ⌈10/3⌉ = 4: units 3@0, 3@1, 3@2, 1@3.
	want := int64(3*(20-0) + 3*(20-1) + 3*(20-2) + 1*(20-3))
	if got := c.Psi(0); got != want {
		t.Fatalf("ψ = %d, want %d", got, want)
	}
	if got := c.ExecutedUnits(); got != 10 {
		t.Fatalf("executed units = %d, want 10 (work units, not wall slots)", got)
	}
	if got := placed(c, 0)[0].Size; got != 4 {
		t.Fatalf("realized processing time = %d, want 4", got)
	}
	// Full capacity for 4 of 20 slots at speed 3: utilization 10/(3·20).
	if got := c.Utilization(); got != 10.0/60.0 {
		t.Fatalf("utilization = %v", got)
	}
}

// Mid-execution queries must see exactly the units completed so far.
func TestRelatedMachineMidJobAccounting(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1, Speeds: []int{4}}},
		[]model.Job{{Org: 0, Release: 0, Size: 10}},
	)
	c := New(in, in.Grand(), orgPriority(0), nil)
	c.Run(2) // 2 slots executed: 8 units
	if got := c.ExecutedUnits(); got != 8 {
		t.Fatalf("units after 2 slots = %d, want 8", got)
	}
	want := int64(4*(2-0) + 4*(2-1))
	if got := c.Psi(0); got != want {
		t.Fatalf("ψ(2) = %d, want %d", got, want)
	}
	c.Run(3) // third slot completes the remaining 2 units
	if got := c.ExecutedUnits(); got != 10 {
		t.Fatalf("units after 3 slots = %d, want 10", got)
	}
}

// Speed-1 machines must behave exactly as the identical-machines
// engine: the Speeds field set to all-ones changes nothing.
func TestRelatedSpeedOneEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randInstance(r, false)
		ones := &model.Instance{Orgs: append([]model.Org(nil), in.Orgs...), Jobs: append([]model.Job(nil), in.Jobs...)}
		for i := range ones.Orgs {
			ones.Orgs[i].Speeds = make([]int, ones.Orgs[i].Machines)
			for m := range ones.Orgs[i].Speeds {
				ones.Orgs[i].Speeds[m] = 1
			}
		}
		horizon := in.Horizon() + 1
		a := New(in, in.Grand(), randPolicy(seed), nil)
		a.Run(horizon)
		b := New(ones, ones.Grand(), randPolicy(seed), nil)
		b.Run(horizon)
		if a.Value() != b.Value() || a.ExecutedUnits() != b.ExecutedUnits() {
			return false
		}
		as, bs := a.Starts(), b.Starts()
		if len(as) != len(bs) {
			return false
		}
		for i := range as {
			if as[i] != bs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Accounting consistency on random related-machine instances: the
// engine's ψ must equal a brute-force per-unit evaluation of the
// recorded schedule.
func TestRelatedAccountingMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randInstance(r, false)
		for i := range in.Orgs {
			in.Orgs[i].Speeds = make([]int, in.Orgs[i].Machines)
			for m := range in.Orgs[i].Speeds {
				in.Orgs[i].Speeds[m] = 1 + r.Intn(4)
			}
		}
		horizon := in.Horizon() + 1 // generous: speeds only shorten jobs
		eval := model.Time(1 + r.Int63n(int64(horizon)))
		c := New(in, in.Grand(), randPolicy(seed+3), nil)
		c.Run(eval)
		// Brute force from the recorded starts.
		psi := make([]int64, len(in.Orgs))
		v := &c.view
		for _, s := range c.Starts() {
			j := in.Jobs[s.Job]
			q := model.Time(v.MachineSpeed(s.Machine))
			remaining := j.Size
			for slot := s.At; remaining > 0 && slot < eval; slot++ {
				units := q
				if units > remaining {
					units = remaining
				}
				psi[s.Org] += int64(units) * int64(eval-slot)
				remaining -= units
			}
		}
		for org := range psi {
			if psi[org] != c.Psi(org) {
				t.Fatalf("seed %d: org %d ψ = %d, brute force %d", seed, org, c.Psi(org), psi[org])
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// The paper suspects "in case of related machines the loss of
// efficiency might be significant" (Section 8): on related machines the
// 3/4-competitiveness of Theorem 6.2 indeed fails. One slow and one
// fast machine, one long job: a greedy policy that grabs the slow
// machine processes 10× less work than one preferring the fast machine.
func TestRelatedMachinesBreakThreeQuarterBound(t *testing.T) {
	build := func() *model.Instance {
		return model.MustNewInstance(
			[]model.Org{{Name: "A", Machines: 2, Speeds: []int{1, 10}}},
			[]model.Job{{Org: 0, Release: 0, Size: 100}},
		)
	}
	slowFirst := New(build(), model.Grand(1), orgPriority(0), nil) // default machine order: M0 (slow)
	slowFirst.Run(10)
	fastPref := &SelectFunc{PolicyName: "fast", F: func(v *View, _ model.Time, _ int) int { return 0 }}
	fastCluster := New(build(), model.Grand(1), &machineReverser{fastPref}, nil)
	fastCluster.Run(10)
	lo, hi := slowFirst.ExecutedUnits(), fastCluster.ExecutedUnits()
	if lo != 10 || hi != 100 {
		t.Fatalf("executed units = %d vs %d, want 10 vs 100", lo, hi)
	}
	if 4*lo >= 3*hi {
		t.Fatal("expected the 3/4 bound to fail on related machines")
	}
}

// machineReverser wraps a policy and visits machines fastest-last-ID
// first (reversed order).
type machineReverser struct{ Policy }

func (m *machineReverser) OrderMachines(_ model.Time, free []int) {
	for i, j := 0, len(free)-1; i < j; i, j = i+1, j-1 {
		free[i], free[j] = free[j], free[i]
	}
}

// FairShare's target share is capacity-weighted on related machines:
// one speed-3 machine earns the same share as three speed-1 machines.
func TestRelatedCapacityShares(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{
			{Name: "A", Machines: 1, Speeds: []int{3}},
			{Name: "B", Machines: 3},
		},
		[]model.Job{{Org: 0, Release: 0, Size: 1}},
	)
	c := New(in, in.Grand(), orgPriority(0, 1), nil)
	v := &c.view
	if v.Share(0) != 0.5 || v.Share(1) != 0.5 {
		t.Fatalf("shares = %v/%v, want 0.5/0.5", v.Share(0), v.Share(1))
	}
	if v.MachineSpeed(0) != 3 || v.MachineSpeed(1) != 1 {
		t.Fatalf("speeds = %d/%d", v.MachineSpeed(0), v.MachineSpeed(1))
	}
}

// REF runs unchanged on related machines (the paper: "most of our
// results can be extended to related processors").
func TestRelatedMachinesValidation(t *testing.T) {
	bad := model.Instance{
		Orgs: []model.Org{{Name: "A", Machines: 2, Speeds: []int{1}}},
	}
	if err := bad.Validate(); err == nil {
		t.Error("mismatched speeds length accepted")
	}
	bad2 := model.Instance{
		Orgs: []model.Org{{Name: "A", Machines: 1, Speeds: []int{0}}},
	}
	if err := bad2.Validate(); err == nil {
		t.Error("zero speed accepted")
	}
}

// Scaled-window accrual is exact for arbitrary window decompositions.
func TestAddScaledWindowDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := model.Time(r.Intn(10))
		p := model.Time(1 + r.Intn(30))
		q := 1 + r.Intn(5)
		dur := (p + model.Time(q) - 1) / model.Time(q)
		// Whole-occupancy accrual in one shot.
		var whole utility.Account
		whole.AddScaledWindow(s, p, q, s, s+dur)
		// Random chunked accrual.
		var chunked utility.Account
		cur := s
		for cur < s+dur {
			next := cur + model.Time(1+r.Intn(3))
			if next > s+dur {
				next = s + dur
			}
			chunked.AddScaledWindow(s, p, q, cur, next)
			cur = next
		}
		return whole == chunked && whole.U == int64(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
