package sim

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

// SelectFunc adapts a plain function (plus a name) to the Policy
// interface; the tests' priority rules.
type SelectFunc struct {
	PolicyName string
	F          func(v *View, t model.Time, machine int) int

	view *View
}

// Name implements Policy.
func (p *SelectFunc) Name() string { return p.PolicyName }

// Attach implements Policy.
func (p *SelectFunc) Attach(view *View, _ *rand.Rand) { p.view = view }

// Select implements Policy.
func (p *SelectFunc) Select(t model.Time, machine int) int { return p.F(p.view, t, machine) }

// hookedPolicy exercises the optional machine-ordering extension.
type hookedPolicy struct {
	view    *View
	ordered int
}

func (p *hookedPolicy) Name() string                           { return "hooked" }
func (p *hookedPolicy) Attach(v *View, _ *rand.Rand)           { p.view = v }
func (p *hookedPolicy) OrderMachines(_ model.Time, free []int) { p.ordered++ }

func (p *hookedPolicy) Select(_ model.Time, _ int) int {
	for org := 0; org < p.view.Orgs(); org++ {
		if p.view.Waiting(org) > 0 {
			return org
		}
	}
	return -1
}

func TestPolicyHooks(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1}},
		[]model.Job{
			{Org: 0, Release: 0, Size: 2},
			{Org: 0, Release: 5, Size: 1},
		},
	)
	p := &hookedPolicy{}
	c := New(in, in.Grand(), p, nil)
	run(c, 10)
	if s := c.Starts(); len(s) != 2 || s[0].Job != 0 || s[1].Job != 1 {
		t.Fatalf("starts = %v", s)
	}
	if p.ordered == 0 {
		t.Fatal("OrderMachines never called")
	}
}

func TestNextEventTimeSentinel(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1}},
		[]model.Job{{Org: 0, Release: 0, Size: 1}},
	)
	c := New(in, in.Grand(), orgPriority(0), nil)
	run(c, 5)
	if got := c.NextEventTime(); got != MaxTime {
		t.Fatalf("NextEventTime after quiescence = %d, want MaxTime", got)
	}
	// Step past quiescence reports no events.
	if c.Step(100) {
		t.Fatal("Step found an event after quiescence")
	}
}

func TestSelectFuncAdapter(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1}},
		[]model.Job{{Org: 0, Release: 0, Size: 1}},
	)
	p := &SelectFunc{PolicyName: "always-zero", F: func(v *View, _ model.Time, _ int) int {
		if v == nil {
			t.Fatal("view not attached")
		}
		return 0
	}}
	if p.Name() != "always-zero" {
		t.Fatalf("Name = %q", p.Name())
	}
	c := New(in, in.Grand(), p, nil)
	run(c, 3)
	if len(c.Starts()) != 1 {
		t.Fatal("SelectFunc policy did not schedule")
	}
}
