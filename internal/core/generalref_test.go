package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/shapley"
	"repro/internal/sim"
	"repro/internal/utility"
)

// utilityFunc is a pluggable utility function ψ: the value an
// organization derives from the schedule of its own jobs, evaluated at
// a time moment. The paper's framework (Section 3, Algorithm REF of
// Figure 1) accepts any envy-free, non-clairvoyant ψ; Section 4 then
// argues only ψsp is strategy-proof, and ψsp is what every scheduler
// here runs. The alternatives drive generalRef, and show why they fail
// the axioms.
//
// Implementations must be non-clairvoyant: the value at time t may
// depend only on execution that happened strictly before t plus the
// identity of starts at or before t — never on the unexecuted remainder
// of a job.
type utilityFunc interface {
	Name() string
	Eval(execs []utility.Execution, t model.Time) int64
}

// spUtility is the strategy-proof utility ψsp of Theorem 4.1
// (Equation 3).
type spUtility struct{}

func (spUtility) Name() string { return "psi_sp" }

func (spUtility) Eval(execs []utility.Execution, t model.Time) int64 {
	return utility.Psi(execs, t)
}

// startsUtility values a schedule by the number of jobs started by t.
// It reacts instantly to scheduling decisions (Δψ = 1 at start time),
// making it the simplest utility for which Figure 1's Distance
// procedure is non-degenerate. It violates strategy-resistance:
// splitting jobs inflates it.
type startsUtility struct{}

func (startsUtility) Name() string { return "starts" }

func (startsUtility) Eval(execs []utility.Execution, t model.Time) int64 {
	var n int64
	for _, e := range execs {
		if e.Start <= t {
			n++
		}
	}
	return n
}

// completedWorkUtility values a schedule by its executed unit slots —
// the resource-utilization utility mentioned in Section 2. It satisfies
// strategy-resistance but not start-time anonymity (delaying costs
// nothing once work completes before t).
type completedWorkUtility struct{}

func (completedWorkUtility) Name() string { return "completed_work" }

func (completedWorkUtility) Eval(execs []utility.Execution, t model.Time) int64 {
	var n int64
	for _, e := range execs {
		n += utility.ExecutedUnits(e.Start, e.Size, t)
	}
	return n
}

// generalRef is Algorithm REF in its full Figure 1 form: fair scheduling
// for an arbitrary utility function ψ. It follows the pseudocode's
// FairAlgorithm loop literally — at every time moment, coalitions are
// processed smallest first; UpdateVals recomputes each member's utility
// and Shapley contribution from the stored subcoalition values; and
// SelectAndSchedule starts the job minimizing the Distance between the
// utility vector and the contribution vector in the Manhattan metric.
//
// For ψsp the Distance comparison degenerates (a job started at t has
// executed nothing before t, so Δψ = 0) and the rule reduces to the
// Figure 3 simplification argmax(φ−ψ) — TestGeneralRefMatchesRefForPsiSP
// verifies that the two implementations then produce identical
// schedules. For utilities that react to starts (startsUtility), the
// Distance procedure is non-degenerate and drives genuinely different
// decisions.
//
// generalRef re-evaluates ψ from per-organization execution lists at
// every decision instant: it is the tests' oracle for Ref, which every
// program runs.
type generalRef struct {
	inst  *model.Instance
	k     int
	grand model.Coalition
	util  utilityFunc

	q      *sim.Queues // shared by every coalition's cluster
	sims   []*sim.Cluster
	bySize []model.Coalition
	execs  [][][]utility.Execution // [mask][org] -> executions
	psi    [][]int64               // [mask][org]
	phi    [][]float64             // [mask][org]
	ct     *shapley.Contrib        // coalition values, updated by updateVals in size order
}

// newGeneralRef builds the arbitrary-utility reference scheduler.
func newGeneralRef(inst *model.Instance, util utilityFunc) *generalRef {
	k := len(inst.Orgs)
	g := &generalRef{
		inst:  inst,
		k:     k,
		grand: model.Grand(k),
		util:  util,
		q:     sim.NewQueues(inst),
		sims:  make([]*sim.Cluster, 1<<uint(k)),
		execs: make([][][]utility.Execution, 1<<uint(k)),
		psi:   make([][]int64, 1<<uint(k)),
		phi:   make([][]float64, 1<<uint(k)),
		ct:    shapley.NewContrib(k),
	}
	for mask := model.Coalition(1); mask <= g.grand; mask++ {
		g.sims[mask] = g.q.NewCluster(mask, &generalRefPolicy{g: g, mask: mask}, nil)
		g.execs[mask] = make([][]utility.Execution, k)
		g.psi[mask] = make([]int64, k)
		g.phi[mask] = make([]float64, k)
	}
	for s := 1; s <= k; s++ {
		for mask := model.Coalition(1); mask <= g.grand; mask++ {
			if mask.Size() == s {
				g.bySize = append(g.bySize, mask)
			}
		}
	}
	return g
}

// Run drives every coalition to the horizon and returns the grand
// coalition's result. Result.Psi reports the configured utility (not
// ψsp) per organization; Result.Value their sum.
func (g *generalRef) Run(until model.Time) *Result {
	for {
		t := sim.MaxTime
		for mask := model.Coalition(1); mask <= g.grand; mask++ {
			if e := g.sims[mask].NextEventTime(); e < t {
				t = e
			}
		}
		if t == sim.MaxTime || t > until {
			break
		}
		g.q.AdvanceTo(t)
		for mask := model.Coalition(1); mask <= g.grand; mask++ {
			g.sims[mask].AdvanceTo(t)
		}
		// FairAlgorithm's inner loop: smallest coalitions first, each
		// refreshing its values and contributions before scheduling.
		for _, mask := range g.bySize {
			g.updateVals(mask, t)
			g.sims[mask].Dispatch()
		}
	}
	g.q.AdvanceTo(until)
	for mask := model.Coalition(1); mask <= g.grand; mask++ {
		g.sims[mask].AdvanceTo(until)
	}
	g.refreshAt(until)
	grand := g.sims[g.grand]
	res := resultFromCluster("GeneralREF("+g.util.Name()+")", grand, until, append([]float64(nil), g.phi[g.grand]...))
	res.Psi = append([]int64(nil), g.psi[g.grand]...)
	res.Value = g.ct.Value(g.grand)
	return res
}

// refreshAt recomputes ψ, v and φ for every coalition at time t.
func (g *generalRef) refreshAt(t model.Time) {
	for _, mask := range g.bySize {
		g.updateVals(mask, t)
	}
}

// updateVals is the UpdateVals procedure of Figure 1 for one coalition:
// member utilities from the coalition's own schedule, the coalition
// value as their sum, and contributions by the contribution engine —
// the same exact integers Ref divides — over the currently stored
// subcoalition values.
func (g *generalRef) updateVals(mask model.Coalition, t model.Time) {
	psi := g.psi[mask]
	var value int64
	mask.EachMember(func(u int) {
		psi[u] = g.util.Eval(g.execs[mask][u], t)
		value += psi[u]
	})
	g.ct.SetValue(mask, value)
	g.ct.PhiInto(mask, g.phi[mask])
}

// generalRefPolicy implements SelectAndSchedule with the Distance
// procedure of Figure 1.
type generalRefPolicy struct {
	g    *generalRef
	mask model.Coalition
	view *sim.View
}

// Name implements sim.Policy.
func (p *generalRefPolicy) Name() string { return "GeneralREF" }

// Attach implements sim.Policy.
func (p *generalRefPolicy) Attach(v *sim.View, _ *rand.Rand) { p.view = v }

// Select implements sim.Policy: the organization minimizing the
// Manhattan distance between the tentative utility vector and the
// tentative contribution vector, assuming its head job is started now.
// Ties break toward the larger deficit φ−ψ, then the lower index.
func (p *generalRefPolicy) Select(t model.Time, _ int) int {
	g := p.g
	phi := g.phi[p.mask]
	psi := g.psi[p.mask]
	size := float64(p.mask.Size())
	best := -1
	bestDist := math.Inf(1)
	bestDeficit := math.Inf(-1)
	p.mask.EachMember(func(u int) {
		if p.view.Waiting(u) == 0 {
			return
		}
		dist := p.distance(t, u, phi, psi, size)
		deficit := phi[u] - float64(psi[u])
		if dist < bestDist-1e-9 || (dist < bestDist+1e-9 && deficit > bestDeficit) {
			best, bestDist, bestDeficit = u, dist, deficit
		}
	})
	// The engine starts best's head job now: record the execution and
	// update the organization's stored utility (SelectAndSchedule's last
	// line).
	id, _, _ := p.view.Head(best)
	g.execs[p.mask][best] = append(g.execs[p.mask][best], utility.Execution{Start: t, Size: g.inst.Jobs[id].Size})
	psi[best] = g.util.Eval(g.execs[p.mask][best], t)
	return best
}

// distance is the Distance procedure: with Δψ the utility increase of
// starting u's head job at t, every member's contribution rises by
// Δψ/‖C‖ and u's utility by Δψ.
func (p *generalRefPolicy) distance(t model.Time, u int, phi []float64, psi []int64, size float64) float64 {
	g := p.g
	id, _, ok := p.view.Head(u)
	if !ok {
		return math.Inf(1)
	}
	tentative := append(g.execs[p.mask][u], utility.Execution{Start: t, Size: g.inst.Jobs[id].Size})
	deltaPsi := float64(g.util.Eval(tentative, t) - psi[u])
	share := deltaPsi / size
	total := math.Abs(phi[u] + share - float64(psi[u]) - deltaPsi)
	p.mask.EachMember(func(v int) {
		if v != u {
			total += math.Abs(phi[v] + share - float64(psi[v]))
		}
	})
	return total
}

// The paper's Figure 3 claim: for ψsp, the general Distance rule of
// Figure 1 reduces to argmax(φ−ψ). The two implementations must
// produce identical schedules.
func TestGeneralRefMatchesRefForPsiSP(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(60 + seed))
		k := 2 + r.Intn(3)
		in := randCoreInstance(r, k, false)
		horizon := in.Horizon() + 1
		a := RefAlgorithm{}.Run(in, horizon, 0)
		b := newGeneralRef(in, spUtility{}).Run(horizon)
		if len(a.Starts) != len(b.Starts) {
			t.Fatalf("seed %d: start counts %d vs %d", seed, len(a.Starts), len(b.Starts))
		}
		for i := range a.Starts {
			if a.Starts[i] != b.Starts[i] {
				t.Fatalf("seed %d: schedules diverge at start %d: %+v vs %+v",
					seed, i, a.Starts[i], b.Starts[i])
			}
		}
		for u := range a.Psi {
			if a.Psi[u] != b.Psi[u] {
				t.Fatalf("seed %d: ψ[%d] = %d vs %d", seed, u, a.Psi[u], b.Psi[u])
			}
		}
	}
}

// With the starts utility, Δψ = 1 at every start, so Figure 1's
// Distance procedure is non-degenerate: within a single instant the
// machines spread across organizations instead of draining one queue.
func TestGeneralRefStartsUtilitySpreads(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1}, {Name: "B", Machines: 1}},
		[]model.Job{
			{Org: 0, Release: 0, Size: 4},
			{Org: 0, Release: 0, Size: 4},
			{Org: 1, Release: 0, Size: 4},
			{Org: 1, Release: 0, Size: 4},
		},
	)
	res := newGeneralRef(in, startsUtility{}).Run(8)
	// At t=0 both machines are free; the Distance rule must give one to
	// each organization (draining A's queue would unbalance ψ vs φ).
	first := map[int]int{}
	for _, s := range res.Starts {
		if s.At == 0 {
			first[s.Org]++
		}
	}
	if first[0] != 1 || first[1] != 1 {
		t.Fatalf("t=0 starts per org = %v, want one each", first)
	}
	// Utilities are start counts: 2 each at the horizon.
	if res.Psi[0] != 2 || res.Psi[1] != 2 {
		t.Fatalf("starts-utility ψ = %v", res.Psi)
	}
}

// Efficiency holds for any utility: Σφ = v(grand).
func TestGeneralRefEfficiency(t *testing.T) {
	for _, util := range []utilityFunc{spUtility{}, startsUtility{}, completedWorkUtility{}} {
		r := rand.New(rand.NewSource(77))
		in := randCoreInstance(r, 3, false)
		res := newGeneralRef(in, util).Run(in.Horizon() + 1)
		var sum float64
		for _, p := range res.Phi {
			sum += p
		}
		if math.Abs(sum-float64(res.Value)) > 1e-6*math.Max(1, math.Abs(float64(res.Value))) {
			t.Errorf("%s: Σφ = %v, value = %d", util.Name(), sum, res.Value)
		}
	}
}

// The Result of a generalRef run reports the configured utility, not
// ψsp: with completed work, Σψ at a generous horizon equals total work.
func TestGeneralRefReportsConfiguredUtility(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	in := randCoreInstance(r, 2, false)
	res := newGeneralRef(in, completedWorkUtility{}).Run(in.Horizon() + 1)
	var sum int64
	for _, p := range res.Psi {
		sum += p
	}
	if sum != int64(in.TotalWork()) {
		t.Fatalf("completed-work Σψ = %d, want %d", sum, in.TotalWork())
	}
}

// The utility functions generalRef accepts, evaluated just after the
// first execution completes.
func TestUtilityFuncs(t *testing.T) {
	execs := []utility.Execution{{Start: 0, Size: 3}, {Start: 5, Size: 2}, {Start: 9, Size: 4}}
	cases := []struct {
		f   utilityFunc
		at3 int64
	}{
		{spUtility{}, utility.Psi(execs, 3)},
		{startsUtility{}, 1},
		{completedWorkUtility{}, 3},
	}
	for _, c := range cases {
		if got := c.f.Eval(execs, 3); got != c.at3 {
			t.Errorf("%s.Eval(3) = %d, want %d", c.f.Name(), got, c.at3)
		}
	}
}

func TestFuncImplementations(t *testing.T) {
	execs := []utility.Execution{{Start: 0, Size: 3}, {Start: 5, Size: 2}, {Start: 9, Size: 4}}
	cases := []struct {
		f    utilityFunc
		name string
		at6  int64
	}{
		{spUtility{}, "psi_sp", utility.Psi(execs, 6)},
		{startsUtility{}, "starts", 2},
		{completedWorkUtility{}, "completed_work", 3 + 1},
	}
	for _, c := range cases {
		if c.f.Name() != c.name {
			t.Errorf("Name = %q, want %q", c.f.Name(), c.name)
		}
		if got := c.f.Eval(execs, 6); got != c.at6 {
			t.Errorf("%s.Eval(6) = %d, want %d", c.name, got, c.at6)
		}
	}
	// startsUtility counts a job started exactly at t (it reacts to the
	// decision instant), unlike the execution-based utilities.
	if got := (startsUtility{}).Eval([]utility.Execution{{Start: 6, Size: 1}}, 6); got != 1 {
		t.Errorf("starts at its own start = %d, want 1", got)
	}
	if got := (spUtility{}).Eval([]utility.Execution{{Start: 6, Size: 1}}, 6); got != 0 {
		t.Errorf("ψsp at its own start = %d, want 0", got)
	}
}
