package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
	"repro/internal/model"
)

func l1(a, b []int64) int64 {
	var d int64
	for i := range a {
		diff := a[i] - b[i]
		if diff < 0 {
			diff = -diff
		}
		d += diff
	}
	return d
}

// Theorem 5.6: for unit-size jobs, RAND with N = ⌈k²/ε²·ln(k/(1−λ))⌉
// permutations yields ‖ψ−ψ*‖₁ ≤ ε·v* with probability λ. We check the
// bound across several seeded runs; with λ = 0.9 an occasional single
// failure is tolerated, more than one in eight runs is not.
func TestRandFPRASBoundUnitJobs(t *testing.T) {
	const eps, lambda = 0.3, 0.9
	failures := 0
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		k := 3
		in := randCoreInstance(r, k, true)
		horizon := in.Horizon() + 1
		refRes := RefAlgorithm{}.Run(in, horizon, 0)
		n := int(float64(k*k)/(eps*eps)*math.Log(float64(k)/(1-lambda))) + 1
		randRes := RandAlgorithm{Samples: n}.Run(in, horizon, seed)
		if float64(l1(randRes.Psi, refRes.Psi)) > eps*float64(refRes.Value) {
			failures++
		}
	}
	if failures > 1 {
		t.Fatalf("FPRAS bound violated in %d of 8 runs", failures)
	}
}

// For unit jobs the sampled coalition values are schedule-independent
// (Proposition 5.4), so RAND's φ estimate is the plain Monte-Carlo
// Shapley estimate of the true game — with every permutation sampled
// many times it converges to REF's exact φ.
func TestRandPhiConvergesToExact(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	in := randCoreInstance(r, 3, true)
	horizon := in.Horizon() + 1
	refRes := RefAlgorithm{}.Run(in, horizon, 0)
	randRes := RandAlgorithm{Samples: 4000}.Run(in, horizon, 7)
	for u := range refRes.Phi {
		diff := refRes.Phi[u] - randRes.Phi[u]
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.05*float64(refRes.Value)+1 {
			t.Errorf("φ[%d]: RAND %v vs REF %v", u, randRes.Phi[u], refRes.Phi[u])
		}
	}
}

// Stratified RAND stays an unbiased estimator: for unit jobs (where
// coalition values are schedule-independent, Proposition 5.4) a large
// budget converges to REF's exact φ just like plain sampling — and each
// full round of k rotations balances the position strata, so it may
// only converge faster.
func TestRandStratifiedPhiConvergesToExact(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	in := randCoreInstance(r, 3, true)
	horizon := in.Horizon() + 1
	refRes := RefAlgorithm{}.Run(in, horizon, 0)
	randRes := RandAlgorithm{Samples: 4000, Opts: RandOptions{Stratified: true}}.Run(in, horizon, 7)
	for u := range refRes.Phi {
		diff := refRes.Phi[u] - randRes.Phi[u]
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.05*float64(refRes.Value)+1 {
			t.Errorf("φ[%d]: stratified RAND %v vs REF %v", u, randRes.Phi[u], refRes.Phi[u])
		}
	}
}

// A control with a known answer: on unit-size jobs a coalition's value
// does not depend on its schedule (Proposition 5.4), so RAND's φ̂ is the
// plain Monte-Carlo Shapley estimate of the true game, and RAND is an
// FPRAS (Theorems 5.6–5.7). The instance set is fixed: 40 instances of
// five organizations on one or two machines each and 100 unit jobs
// released over 20 ticks, tilted toward low-index organizations; RAND's
// seed is the instance's index at every sample count N = 5, 15, 75.
// The mean ‖φ̂ − φ‖₁/v* at the horizon must fall as N grows. The mean
// Δψ/p_tot against REF is logged, not held: on this set it is nonzero
// on a few instances only, each a swap of a few unit jobs, and it did
// not fall from N = 15 to N = 75 (0.0020, then 0.0030; CHANGES.md).
func TestRandControlUnitJobs(t *testing.T) {
	const k, instances = 5, 40
	samples := []int{5, 15, 75}
	phiErr := make([]float64, len(samples))
	unfair := make([]float64, len(samples))
	for i := 0; i < instances; i++ {
		r := rand.New(rand.NewSource(7100 + int64(i)))
		orgs := make([]model.Org, k)
		for u := range orgs {
			orgs[u] = model.Org{Name: string(rune('A' + u)), Machines: 1 + r.Intn(2)}
		}
		jobs := make([]model.Job, 100)
		for j := range jobs {
			jobs[j] = model.Job{Org: min(r.Intn(k), r.Intn(k)), Release: model.Time(r.Intn(20)), Size: 1}
		}
		in := model.MustNewInstance(orgs, jobs)
		horizon := in.Horizon() + 1
		ref := RefAlgorithm{}.Run(in, horizon, 0)
		for n, samples := range samples {
			res := RandAlgorithm{Samples: samples}.Run(in, horizon, int64(i))
			for u := range ref.Phi {
				phiErr[n] += math.Abs(res.Phi[u]-ref.Phi[u]) / float64(ref.Value) / instances
			}
			unfair[n] += metrics.UnfairnessPerUnit(res.Psi, ref.Psi, ref.Ptot) / instances
		}
	}
	t.Logf("N = %v: mean ‖φ̂ − φ‖₁/v* %.4f, mean Δψ/p_tot %.4f", samples, phiErr, unfair)
	for n := 1; n < len(samples); n++ {
		if phiErr[n] >= phiErr[n-1] {
			t.Errorf("mean ‖φ̂ − φ‖₁/v* %.4f at N = %d, not below %.4f at N = %d", phiErr[n], samples[n], phiErr[n-1], samples[n-1])
		}
	}
}

func TestRandDeterministicPerSeed(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	in := randCoreInstance(r, 4, false)
	horizon := in.Horizon()
	a := RandAlgorithm{Samples: 15}.Run(in, horizon, 5)
	b := RandAlgorithm{Samples: 15}.Run(in, horizon, 5)
	for i := range a.Starts {
		if a.Starts[i] != b.Starts[i] {
			t.Fatalf("RAND with equal seeds diverged at start %d", i)
		}
	}
	c := RandAlgorithm{Samples: 15}.Run(in, horizon, 6)
	if len(c.Starts) != len(a.Starts) {
		t.Fatalf("different job counts across seeds: %d vs %d", len(c.Starts), len(a.Starts))
	}
}

// All algorithms schedule every job eventually: at a generous horizon
// the executed units equal the total work.
func TestAllAlgorithmsCompleteAllJobs(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	in := randCoreInstance(r, 3, false)
	horizon := in.Horizon() + 1
	algs := []Algorithm{
		RefAlgorithm{},
		RandAlgorithm{Samples: 10},
		DirectContrAlgorithm(),
	}
	for _, a := range algs {
		res := a.Run(in, horizon, 1)
		if res.Ptot != int64(in.TotalWork()) {
			t.Errorf("%s executed %d units, want %d", a.Name(), res.Ptot, in.TotalWork())
		}
		if len(res.Starts) != len(in.Jobs) {
			t.Errorf("%s started %d jobs, want %d", a.Name(), len(res.Starts), len(in.Jobs))
		}
	}
}

func TestRandRejectsZeroSamples(t *testing.T) {
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1}},
		[]model.Job{{Org: 0, Release: 0, Size: 1}},
	)
	defer func() {
		if recover() == nil {
			t.Fatal("RAND with zero samples must panic")
		}
	}()
	NewRandSched(in, 0, 1, RandOptions{})
}
