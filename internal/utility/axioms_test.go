package utility

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// randSchedule draws a small random schedule; starts and sizes stay small
// so that closed-form and brute-force evaluations remain cheap.
func randSchedule(r *rand.Rand) []Execution {
	n := r.Intn(8)
	out := make([]Execution, n)
	for i := range out {
		out[i] = Execution{
			Start: model.Time(r.Intn(30)),
			Size:  model.Time(1 + r.Intn(12)),
		}
	}
	return out
}

// bruteForcePsi evaluates ψsp from first principles: each executed unit
// slot τ < t is worth t − τ.
func bruteForcePsi(execs []Execution, t model.Time) int64 {
	var total int64
	for _, e := range execs {
		for tau := e.Start; tau < e.Start+e.Size && tau < t; tau++ {
			total += int64(t - tau)
		}
	}
	return total
}

func TestPsiMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sched := randSchedule(r)
		eval := model.Time(r.Intn(50))
		return Psi(sched, eval) == bruteForcePsi(sched, eval)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Axiom 1 (task anonymity, starting times): delaying a fully executed
// task of size p by one unit costs exactly p, independent of the rest of
// the schedule and of the start time.
func TestAxiomStartTimeAnonymity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sched := randSchedule(r)
		p := model.Time(1 + r.Intn(10))
		s := model.Time(r.Intn(10))
		eval := s + p + 1 + model.Time(r.Intn(20)) // both placements complete before eval
		a := Psi(append(append([]Execution(nil), sched...), Execution{s, p}), eval)
		b := Psi(append(append([]Execution(nil), sched...), Execution{s + 1, p}), eval)
		return a-b == int64(p) && a-b > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Axiom 2 (task anonymity, number of tasks): adding a task increases the
// utility by an amount independent of the schedule it is added to, and
// positive whenever the task starts before eval.
func TestAxiomTaskCountAnonymity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s1, s2 := randSchedule(r), randSchedule(r)
		task := Execution{Start: model.Time(r.Intn(10)), Size: model.Time(1 + r.Intn(10))}
		eval := task.Start + 1 + model.Time(r.Intn(30))
		d1 := Psi(append(append([]Execution(nil), s1...), task), eval) - Psi(s1, eval)
		d2 := Psi(append(append([]Execution(nil), s2...), task), eval) - Psi(s2, eval)
		return d1 == d2 && d1 > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Axiom 3 (strategy-resistance): splitting a job (s, p1+p2) into two
// back-to-back pieces (s, p1) and (s+p1, p2) never changes the utility —
// at any evaluation time, including mid-execution.
func TestAxiomStrategyResistance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sched := randSchedule(r)
		s := model.Time(r.Intn(15))
		p1 := model.Time(1 + r.Intn(8))
		p2 := model.Time(1 + r.Intn(8))
		eval := model.Time(r.Intn(40))
		merged := Psi(append(append([]Execution(nil), sched...), Execution{s, p1 + p2}), eval)
		split := Psi(append(append([]Execution(nil), sched...), Execution{s, p1}, Execution{s + p1, p2}), eval)
		return merged == split
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Delaying a job (larger start) can never raise the utility — so an
// organization gains nothing by withholding jobs (Section 4 discussion).
func TestDelayNeverProfitable(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := model.Time(r.Intn(20))
		p := model.Time(1 + r.Intn(10))
		d := model.Time(r.Intn(10))
		eval := model.Time(r.Intn(50))
		return PsiJob(s+d, p, eval) <= PsiJob(s, p, eval)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Proposition 4.2: for equal-size jobs all completed before t,
// ψsp = ‖J‖·(p·t + (p²+p)/2) − p·Σr − p·flow, so maximizing ψsp minimizes
// total flow time. (The paper prints the release term as Σr; re-deriving
// the algebra shows it carries a factor p — the two agree for the p=1
// case and the proposition's conclusion is unaffected.)
func TestFlowEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := model.Time(1 + r.Intn(6))
		n := 1 + r.Intn(6)
		placed := make([]Placed, n)
		execs := make([]Execution, n)
		var maxC model.Time
		var sumR int64
		for i := range placed {
			rel := model.Time(r.Intn(10))
			start := rel + model.Time(r.Intn(10))
			placed[i] = Placed{Release: rel, Start: start, Size: p}
			execs[i] = Execution{Start: start, Size: p}
			if c := start + p; c > maxC {
				maxC = c
			}
			sumR += int64(rel)
		}
		eval := maxC + model.Time(r.Intn(5)) // every job completed
		psi := Psi(execs, eval)
		flow := TotalFlow(placed, eval)
		want := int64(n)*(int64(p)*int64(eval)+(int64(p)*int64(p)+int64(p))/2) - int64(p)*sumR - int64(p)*flow
		return psi == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// The Account accumulator must agree with direct evaluation for arbitrary
// window decompositions of the executions.
func TestAccountMatchesPsi(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		sched := randSchedule(r)
		eval := model.Time(r.Intn(60))
		var acc Account
		for _, e := range sched {
			// Split each execution into random chunks, as an event-driven
			// simulator would.
			cur := e.Start
			end := e.Start + e.Size
			if end > eval {
				end = eval
			}
			for cur < end {
				step := model.Time(1 + r.Intn(4))
				next := cur + step
				if next > end {
					next = end
				}
				acc.AddWindow(cur, next)
				cur = next
			}
		}
		return acc.PsiAt(eval) == Psi(sched, eval)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAddWindowEmpty(t *testing.T) {
	var acc Account
	acc.AddWindow(5, 5)
	acc.AddWindow(7, 3)
	if acc.U != 0 || acc.S != 0 {
		t.Fatalf("empty windows recorded units: %+v", acc)
	}
}

func TestAccountAdd(t *testing.T) {
	var a, b Account
	a.AddWindow(0, 3)
	b.AddWindow(3, 5)
	a.Add(b)
	if a.U != 5 || a.S != 0+1+2+3+4 {
		t.Fatalf("merged account = %+v", a)
	}
}

func TestPsiJobEdges(t *testing.T) {
	cases := []struct {
		s, p, t model.Time
		want    int64
	}{
		{0, 1, 0, 0},                        // nothing executed yet
		{0, 1, 1, 1},                        // one unit at slot 0 worth 1
		{5, 3, 5, 0},                        // starts exactly at eval
		{5, 3, 6, 1},                        // one executed unit
		{5, 3, 100, 3 * (95 + 94 + 93) / 3}, // fully done long ago
		{10, 4, 8, 0},                       // starts after eval
	}
	for _, c := range cases {
		if got := PsiJob(c.s, c.p, c.t); got != c.want {
			t.Errorf("PsiJob(%d,%d,%d) = %d, want %d", c.s, c.p, c.t, got, c.want)
		}
	}
}

func TestMetrics(t *testing.T) {
	placed := []Placed{
		{Release: 0, Start: 0, Size: 3},
		{Release: 1, Start: 3, Size: 2},
		{Release: 0, Start: 4, Size: 10},
	}
	if got := TotalFlow(placed, 6); got != (3-0)+(5-1) {
		t.Errorf("TotalFlow(6) = %d", got)
	}
	if got := TotalFlow(placed, 14); got != 3+4+14 {
		t.Errorf("TotalFlow(14) = %d", got)
	}
}
