package baseline

import (
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

func instance(jobs []model.Job, machines ...int) *model.Instance {
	orgs := make([]model.Org, len(machines))
	for i, m := range machines {
		orgs[i] = model.Org{Name: string(rune('A' + i)), Machines: m}
	}
	return model.MustNewInstance(orgs, jobs)
}

func TestFCFSOrdersByReleaseThenID(t *testing.T) {
	in := instance([]model.Job{
		{Org: 1, Release: 0, Size: 5},
		{Org: 0, Release: 1, Size: 5},
		{Org: 1, Release: 1, Size: 5},
	}, 1, 1)
	// One machine only (give org B zero): rebuild with a single machine.
	in = instance(in.Jobs, 1, 0)
	c := sim.New(in, in.Grand(), NewFCFS(), nil)
	c.Run(100)
	starts := c.Starts()
	wantOrgs := []int{1, 0, 1}
	for i, s := range starts {
		if s.Org != wantOrgs[i] {
			t.Fatalf("start order orgs = %v, want %v", starts, wantOrgs)
		}
	}
}

func TestRoundRobinAlternates(t *testing.T) {
	var jobs []model.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, model.Job{Org: i % 3, Release: 0, Size: 10})
	}
	in := instance(jobs, 1, 1, 1)
	// Single machine: all three orgs always waiting → strict rotation.
	in = instance(jobs, 1, 0, 0)
	c := sim.New(in, in.Grand(), NewRoundRobin(), nil)
	c.Run(100)
	var orgs []int
	for _, s := range c.Starts() {
		orgs = append(orgs, s.Org)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if orgs[i] != want[i] {
			t.Fatalf("round robin order = %v, want %v", orgs, want)
		}
	}
}

func TestRoundRobinSkipsEmpty(t *testing.T) {
	jobs := []model.Job{
		{Org: 0, Release: 0, Size: 2},
		{Org: 2, Release: 0, Size: 2},
		{Org: 2, Release: 0, Size: 2},
	}
	in := instance(jobs, 1, 0, 0)
	c := sim.New(in, in.Grand(), NewRoundRobin(), nil)
	c.Run(100)
	var orgs []int
	for _, s := range c.Starts() {
		orgs = append(orgs, s.Org)
	}
	want := []int{0, 2, 2}
	for i := range want {
		if orgs[i] != want[i] {
			t.Fatalf("orgs = %v, want %v", orgs, want)
		}
	}
}

// FairShare: the organization owning 3 of 4 machines must receive ~3/4
// of the CPU time when both organizations have unbounded backlogs.
func TestFairShareProportionalUsage(t *testing.T) {
	var jobs []model.Job
	for i := 0; i < 200; i++ {
		jobs = append(jobs, model.Job{Org: i % 2, Release: 0, Size: 4})
	}
	in := instance(jobs, 3, 1)
	p := NewFairShare().(*shareRatioPolicy)
	c := sim.New(in, in.Grand(), p, nil)
	c.Run(100)
	v := p.view
	u0, u1 := float64(v.Usage(0)), float64(v.Usage(1))
	ratio := u0 / (u0 + u1)
	if ratio < 0.70 || ratio > 0.80 {
		t.Fatalf("org A usage share = %v, want ≈0.75", ratio)
	}
}

// UtFairShare balances ψ/share instead of usage/share; with equal
// shares and equal backlogs the utilities must come out near equal.
func TestUtFairShareBalancesUtility(t *testing.T) {
	var jobs []model.Job
	for i := 0; i < 100; i++ {
		jobs = append(jobs, model.Job{Org: i % 2, Release: 0, Size: 3})
	}
	in := instance(jobs, 1, 1)
	c := sim.New(in, in.Grand(), NewUtFairShare(), nil)
	c.Run(120)
	p0, p1 := c.Psi(0), c.Psi(1)
	diff := p0 - p1
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.1*float64(p0+p1) {
		t.Fatalf("ψ = %d vs %d: not balanced", p0, p1)
	}
}

// CurrFairShare keeps the running-job counts proportional to shares.
func TestCurrFairShareRunningCounts(t *testing.T) {
	var jobs []model.Job
	for i := 0; i < 40; i++ {
		jobs = append(jobs, model.Job{Org: i % 2, Release: 0, Size: 50})
	}
	in := instance(jobs, 3, 1)
	p := NewCurrFairShare().(*shareRatioPolicy)
	c := sim.New(in, in.Grand(), p, nil)
	c.Run(10)
	v := p.view
	if v.Running(0) != 3 || v.Running(1) != 1 {
		t.Fatalf("running = %d/%d, want 3/1", v.Running(0), v.Running(1))
	}
}

// Zero-share organizations must still be schedulable (greediness).
func TestFairShareZeroShareOrgStillRuns(t *testing.T) {
	jobs := []model.Job{{Org: 1, Release: 0, Size: 2}}
	in := instance(jobs, 1, 0)
	for _, p := range []sim.Policy{NewFairShare(), NewUtFairShare(), NewCurrFairShare()} {
		c := sim.New(in, in.Grand(), p, nil)
		c.Run(10)
		if len(c.Starts()) != 1 {
			t.Fatalf("%s did not run the zero-share org's job", p.Name())
		}
	}
}

func TestPriorityOrder(t *testing.T) {
	jobs := []model.Job{
		{Org: 0, Release: 0, Size: 2},
		{Org: 1, Release: 0, Size: 2},
	}
	in := instance(jobs, 1, 0)
	c := sim.New(in, in.Grand(), NewPriority(1, 0), nil)
	c.Run(10)
	if c.Starts()[0].Org != 1 {
		t.Fatalf("priority(1,0) started org %d first", c.Starts()[0].Org)
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]sim.Policy{
		"FCFS":          NewFCFS(),
		"RoundRobin":    NewRoundRobin(),
		"FairShare":     NewFairShare(),
		"UtFairShare":   NewUtFairShare(),
		"CurrFairShare": NewCurrFairShare(),
		"Priority":      NewPriority(0),
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("Name() = %q, want %q", p.Name(), want)
		}
	}
}
