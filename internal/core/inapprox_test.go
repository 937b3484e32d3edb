package core

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/utility"
)

// The instance behind Theorem 5.3's inapproximability argument: m
// organizations, one machine, one identical job each. σ_ord schedules
// them in index order, σ_rev in reverse. The relative Manhattan distance
// between the two utility vectors tends to 1 as m grows, so a
// (1/2−ε)-approximate fair schedule cannot tell which order is the fair
// one.
func TestInapproximabilityGapGrowsWithOrgs(t *testing.T) {
	const p = model.Time(5)
	prev := 0.0
	for _, m := range []int{2, 4, 8, 16, 32} {
		eval := model.Time(int64(m))*p + 1
		ord := make([]int64, m)
		rev := make([]int64, m)
		var total int64
		for i := 0; i < m; i++ {
			ord[i] = utility.PsiJob(model.Time(int64(i))*p, p, eval)
			rev[m-1-i] = ord[i]
			total += ord[i]
		}
		gap := float64(metrics.DeltaPsi(ord, rev)) / float64(total)
		if gap <= prev {
			t.Fatalf("m=%d: relative gap %v did not grow (prev %v)", m, gap, prev)
		}
		prev = gap
	}
	// By m=32 the gap must be well past the 1/2 approximation threshold.
	if prev <= 0.5 {
		t.Fatalf("relative gap at m=32 is %v, expected > 1/2", prev)
	}
}

// Definition 5.2's α for the trivial case: a schedule compared with
// itself is a 0-approximation.
func TestSelfDistanceZero(t *testing.T) {
	psi := []int64{10, 20, 30}
	if got := metrics.DeltaPsi(psi, psi); got != 0 {
		t.Fatalf("self distance = %v", got)
	}
}
