package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/shapley"
)

// "Most of our results can be extended to related processors"
// (Section 2): REF runs unchanged on machines with speeds, and its
// contributions still match the generic Shapley evaluator and satisfy
// efficiency.
func TestRefOnRelatedMachines(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		r := rand.New(rand.NewSource(200 + seed))
		k := 2 + r.Intn(2)
		in := randCoreInstance(r, k, false)
		for i := range in.Orgs {
			in.Orgs[i].Speeds = make([]int, in.Orgs[i].Machines)
			for m := range in.Orgs[i].Speeds {
				in.Orgs[i].Speeds[m] = 1 + r.Intn(3)
			}
		}
		horizon := in.Horizon() + 1
		ref := NewRef(in, RefOptions{})
		res := runStepper(ref, horizon)
		var sum float64
		for _, p := range res.Phi {
			sum += p
		}
		if math.Abs(sum-float64(res.Value)) > 1e-6*math.Max(1, float64(res.Value)) {
			t.Fatalf("seed %d: Σφ = %v, value = %d", seed, sum, res.Value)
		}
		want := shapley.Exact(shapley.FuncGame{N: k, F: func(c model.Coalition) float64 {
			return float64(ref.ValueOf(c))
		}})
		for u := 0; u < k; u++ {
			if math.Abs(res.Phi[u]-want[u]) > 1e-6 {
				t.Fatalf("seed %d: φ[%d] = %v, generic %v", seed, u, res.Phi[u], want[u])
			}
		}
		// All work completes by the generous horizon in every coalition
		// (speeds only shorten jobs).
		if res.Ptot != int64(in.TotalWork()) {
			t.Fatalf("seed %d: executed %d of %d work units", seed, res.Ptot, in.TotalWork())
		}
	}
}
