package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/shapley"
)

// REF's org-level game plugged into the generic Shapley machinery must
// reproduce the contributions the driver itself scheduled by: at the
// horizon, shapley.ExactAt over Ref.Game() equals Ref.PhiOf(grand) —
// the same coalition values feed both paths.
func TestOrgGameMatchesRefPhi(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(5100 + seed))
		inst := randCoreInstance(r, 2+int(seed%3), false)
		for _, byOracle := range []bool{false, true} {
			ref := NewRef(inst, RefOptions{})
			var st Stepper = ref
			if byOracle {
				st = newOracle(ref.set())
			}
			res := runStepper(st, 200)
			phi := shapley.ExactAt(ref.Game(), 200)
			for u := range phi {
				if math.Abs(phi[u]-res.Phi[u]) > 1e-9 {
					t.Fatalf("seed %d, by the oracle %v: φ[%d] = %v via ExactAt, %v via REF", seed, byOracle, u, phi[u], res.Phi[u])
				}
			}
			// The game's grand value is the scheduled coalition value.
			if got := ref.Game().ValueAt(model.Grand(len(inst.Orgs)), 200); got != res.Value {
				t.Fatalf("seed %d, by the oracle %v: grand value %d via game, %d via result", seed, byOracle, got, res.Value)
			}
		}
	}
}

// The sampled estimator consumes the same game: on a 2-org instance a
// modest permutation budget recovers the exact contributions (with two
// players there are only two orderings, so the average converges fast
// and efficiency holds per sample).
func TestOrgGameSampledEfficiency(t *testing.T) {
	r := rand.New(rand.NewSource(5200))
	inst := randCoreInstance(r, 3, false)
	ref := NewRef(inst, RefOptions{})
	res := runStepper(ref, 150)
	phi := shapley.SampleAt(ref.Game(), 150, 40, rand.New(rand.NewSource(1)))
	var sum float64
	for _, p := range phi {
		sum += p
	}
	if math.Abs(sum-float64(res.Value)) > 1e-6 {
		t.Fatalf("sampled Σφ = %v, v(grand) = %d (efficiency holds per permutation)", sum, res.Value)
	}
}
