package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N != 8 {
		t.Errorf("N = %d", s.N)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("Mean = %v", s.Mean)
	}
	// Population variance of this classic sequence is 4; sample variance
	// is 4·8/7.
	want := math.Sqrt(4 * 8.0 / 7.0)
	if math.Abs(s.Std()-want) > 1e-12 {
		t.Errorf("Std = %v, want %v", s.Std(), want)
	}
}

func TestSummaryFewObservations(t *testing.T) {
	var s Summary
	if s.Std() != 0 {
		t.Error("empty Std != 0")
	}
	s.Add(3)
	if s.Std() != 0 || s.Mean != 3 {
		t.Error("single-observation summary wrong")
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(4, 1)
	var sum float64
	for i, x := range w {
		sum += x
		if i > 0 && x >= w[i-1] {
			t.Errorf("weights not decreasing: %v", w)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("weights sum to %v", sum)
	}
	u := ZipfWeights(5, 0)
	for _, x := range u {
		if math.Abs(x-0.2) > 1e-12 {
			t.Errorf("uniform weights = %v", u)
		}
	}
	if ZipfWeights(0, 1) != nil {
		t.Error("n=0 should yield nil")
	}
}

func TestApportionSumsAndFloors(t *testing.T) {
	f := func(total uint16, n uint8, tenthExp uint8) bool {
		tt := int(total%5000) + 1
		nn := int(n%12) + 1
		exp := float64(tenthExp%30) / 10
		parts := ZipfSplit(tt, nn, exp)
		sum := 0
		for _, p := range parts {
			if p < 0 {
				return false
			}
			sum += p
		}
		if sum != tt {
			return false
		}
		if tt >= nn {
			for _, p := range parts {
				if p == 0 {
					return false // every org must own at least one machine
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestApportionKnown(t *testing.T) {
	got := UniformSplit(10, 4)
	want := []int{3, 3, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UniformSplit(10,4) = %v, want %v", got, want)
		}
	}
	z := ZipfSplit(70, 5, 1)
	// Zipf(1) over 5 orgs: weights ∝ 1, 1/2, 1/3, 1/4, 1/5.
	if z[0] <= z[1] || z[1] < z[2] || z[2] < z[3] || z[3] < z[4] {
		t.Fatalf("ZipfSplit not decreasing: %v", z)
	}
	sum := 0
	for _, x := range z {
		sum += x
	}
	if sum != 70 {
		t.Fatalf("ZipfSplit sums to %d", sum)
	}
}

func TestApportionDegenerate(t *testing.T) {
	if got := Apportion(0, []float64{1, 2}); got[0] != 0 || got[1] != 0 {
		t.Errorf("total=0: %v", got)
	}
	if got := Apportion(5, nil); len(got) != 0 {
		t.Errorf("no weights: %v", got)
	}
	got := Apportion(5, []float64{0, 0})
	if got[0]+got[1] != 5 {
		t.Errorf("zero weights must still sum: %v", got)
	}
	// Fewer items than parts: sum must still hold, zeros allowed.
	got = Apportion(2, []float64{1, 1, 1, 1})
	sum := 0
	for _, x := range got {
		sum += x
	}
	if sum != 2 {
		t.Errorf("small total: %v", got)
	}
}

func TestDistributionsDeterministicAndSane(t *testing.T) {
	r1, r2 := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		a, b := LogNormal(r1, 1, 0.5), LogNormal(r2, 1, 0.5)
		if a != b {
			t.Fatal("LogNormal not deterministic under equal seeds")
		}
		if a <= 0 {
			t.Fatal("LogNormal produced non-positive value")
		}
	}
	r := NewRand(7)
	var s Summary
	for i := 0; i < 20000; i++ {
		s.Add(Exponential(r, 10))
	}
	if math.Abs(s.Mean-10) > 0.5 {
		t.Errorf("Exponential mean = %v, want ≈10", s.Mean)
	}
	var g Summary
	for i := 0; i < 20000; i++ {
		g.Add(float64(Geometric(r, 4)))
	}
	if math.Abs(g.Mean-4) > 0.25 {
		t.Errorf("Geometric mean = %v, want ≈4", g.Mean)
	}
	if Geometric(r, 0.5) != 1 {
		t.Error("Geometric with mean <= 1 must return 1")
	}
}
