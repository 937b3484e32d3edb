package bargain

import (
	"errors"
	"math"
	"testing"
)

// solveFresh solves on a fresh Solver into a new allocation vector.
func solveFresh(w, d, maxs []float64, capacity float64) ([]float64, error) {
	x := make([]float64, len(w))
	var s Solver
	return x, s.SolveInto(x, w, d, maxs, capacity)
}

func solve(t *testing.T, w, d, maxs []float64, capacity float64) []float64 {
	t.Helper()
	x, err := solveFresh(w, d, maxs, capacity)
	if err != nil {
		t.Fatalf("SolveInto(%v, %v, %v, %v): %v", w, d, maxs, capacity, err)
	}
	return x
}

func TestEqualWeightsSplitEvenly(t *testing.T) {
	x := solve(t, []float64{1, 1}, []float64{0, 0}, nil, 10)
	if x[0] != 5 || x[1] != 5 {
		t.Fatalf("x = %v, want [5 5]", x)
	}
}

func TestWeightsSplitProportionally(t *testing.T) {
	x := solve(t, []float64{3, 1}, []float64{0, 0}, nil, 8)
	if x[0] != 6 || x[1] != 2 {
		t.Fatalf("x = %v, want [6 2]", x)
	}
}

func TestDisagreementPointsAreBaselines(t *testing.T) {
	x := solve(t, []float64{1, 1}, []float64{4, 0}, nil, 10)
	// Surplus 6 splits evenly on top of the baselines.
	if x[0] != 7 || x[1] != 3 {
		t.Fatalf("x = %v, want [7 3]", x)
	}
}

func TestCapRedistributes(t *testing.T) {
	// Agent 0's proportional share (5) exceeds its cap (2); the excess
	// flows to agent 1.
	x := solve(t, []float64{1, 1}, []float64{0, 0}, []float64{2, math.Inf(1)}, 10)
	if x[0] != 2 || x[1] != 8 {
		t.Fatalf("x = %v, want [2 8]", x)
	}
}

func TestCascadingCaps(t *testing.T) {
	// First pass pins agent 0 (share 4 > cap 1); the redistribution
	// then pins agent 1 too (share 4.5 > cap 3); agent 2 takes the rest.
	x := solve(t, []float64{1, 1, 1}, []float64{0, 0, 0}, []float64{1, 3, math.Inf(1)}, 12)
	if x[0] != 1 || x[1] != 3 || x[2] != 8 {
		t.Fatalf("x = %v, want [1 3 8]", x)
	}
}

func TestAllCappedLeavesSlack(t *testing.T) {
	x := solve(t, []float64{1, 1}, []float64{0, 0}, []float64{2, 3}, 100)
	if x[0] != 2 || x[1] != 3 {
		t.Fatalf("x = %v, want the caps [2 3]", x)
	}
}

func TestZeroWeightStaysAtDisagreement(t *testing.T) {
	x := solve(t, []float64{0, 1}, []float64{2, 1}, nil, 10)
	if x[0] != 2 || x[1] != 8 {
		t.Fatalf("x = %v, want [2 8]", x)
	}
}

func TestAllZeroWeights(t *testing.T) {
	x := solve(t, []float64{0, 0}, []float64{1, 2}, nil, 10)
	if x[0] != 1 || x[1] != 2 {
		t.Fatalf("x = %v, want the disagreement vector [1 2]", x)
	}
}

func TestSingleAgentDegenerate(t *testing.T) {
	if x := solve(t, []float64{5}, []float64{3}, nil, 11); x[0] != 11 {
		t.Fatalf("uncapped single agent takes all: x = %v, want [11]", x)
	}
	if x := solve(t, []float64{5}, []float64{3}, []float64{7}, 11); x[0] != 7 {
		t.Fatalf("capped single agent stops at the cap: x = %v, want [7]", x)
	}
	if x := solve(t, []float64{0}, []float64{3}, nil, 11); x[0] != 3 {
		t.Fatalf("weightless single agent keeps d: x = %v, want [3]", x)
	}
}

func TestInfeasibleErrors(t *testing.T) {
	if _, err := solveFresh([]float64{1, 1}, []float64{5, 6}, nil, 10); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("Σd > C must return ErrInfeasible, got %v", err)
	}
}

func TestNearFeasibleTolerated(t *testing.T) {
	// Superadditive games round-trip through float64; a few ulps of
	// Σd > C must degrade to the disagreement vector, not error.
	d := []float64{1e15, 2e15}
	x, err := solveFresh([]float64{1, 1}, d, nil, 3e15-0.25)
	if err != nil {
		t.Fatalf("ulp-level infeasibility must be tolerated: %v", err)
	}
	if x[0] < d[0]-1 || x[1] < d[1]-1 {
		t.Fatalf("x = %v fell below d = %v", x, d)
	}
}

func TestInputValidation(t *testing.T) {
	cases := []struct {
		name     string
		w, d, mx []float64
		c        float64
	}{
		{"mismatched lengths", []float64{1}, []float64{0, 0}, nil, 1},
		{"negative weight", []float64{-1, 1}, []float64{0, 0}, nil, 1},
		{"NaN weight", []float64{math.NaN(), 1}, []float64{0, 0}, nil, 1},
		{"NaN disagreement", []float64{1, 1}, []float64{math.NaN(), 0}, nil, 1},
		{"cap below d", []float64{1, 1}, []float64{3, 0}, []float64{2, 9}, 9},
		{"NaN capacity", []float64{1, 1}, []float64{0, 0}, nil, math.NaN()},
		{"infinite capacity", []float64{1, 1}, []float64{0, 0}, nil, math.Inf(1)},
	}
	for _, c := range cases {
		if _, err := solveFresh(c.w, c.d, c.mx, c.c); err == nil {
			t.Errorf("%s: expected an error", c.name)
		}
	}
}

func TestSolverReuseMatchesFresh(t *testing.T) {
	var s Solver
	w := []float64{2, 1, 3}
	d := []float64{1, 0, 2}
	mx := []float64{4, math.Inf(1), math.Inf(1)}
	x1 := make([]float64, 3)
	if err := s.SolveInto(x1, w, d, mx, 20); err != nil {
		t.Fatal(err)
	}
	// A second, smaller solve on the same scratch.
	x2 := make([]float64, 2)
	if err := s.SolveInto(x2, []float64{1, 1}, []float64{0, 0}, nil, 2); err != nil {
		t.Fatal(err)
	}
	x3, err := solveFresh(w, d, mx, 20)
	if err != nil {
		t.Fatal(err)
	}
	x4 := make([]float64, 3)
	if err := s.SolveInto(x4, w, d, mx, 20); err != nil {
		t.Fatal(err)
	}
	for i := range x3 {
		if x1[i] != x3[i] || x4[i] != x3[i] {
			t.Fatalf("scratch reuse diverged: fresh %v, first %v, reused %v", x3, x1, x4)
		}
	}
}

func TestSolveIntoAllocFree(t *testing.T) {
	var s Solver
	const n = 8
	w := make([]float64, n)
	d := make([]float64, n)
	mx := make([]float64, n)
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = float64(1 + i)
		d[i] = float64(i)
		mx[i] = math.Inf(1)
	}
	mx[2], mx[5] = d[2]+1, d[5]+2 // exercise the pinning passes
	if err := s.SolveInto(x, w, d, mx, 1000); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := s.SolveInto(x, w, d, mx, 1000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SolveInto allocates %v per solve; the budget is 0", allocs)
	}
}
