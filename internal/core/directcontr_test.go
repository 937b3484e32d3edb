package core

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

// An organization that has long lent its machine to others must win the
// next scheduling decision once it finally submits: its deficit φ̃−ψ is
// large and positive, while the flooding organization's is negative.
func TestDirectContrRewardsLenders(t *testing.T) {
	jobs := []model.Job{}
	// B floods the system from t=0 with unit jobs.
	for i := 0; i < 40; i++ {
		jobs = append(jobs, model.Job{Org: 1, Release: 0, Size: 1})
	}
	// A submits its first job at t=10; both machines are busy with B's
	// backlog at that point.
	jobs = append(jobs, model.Job{Org: 0, Release: 10, Size: 1})
	in := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1}, {Name: "B", Machines: 1}},
		jobs,
	)
	res := Run(DirectContrAlgorithm(), in, 60, 1)
	var aStart model.Time = -1
	for _, s := range res.Starts {
		if s.Org == 0 {
			aStart = s.At
		}
	}
	if aStart != 10 {
		t.Fatalf("A's job started at %d, want 10 (immediate service for the lender)", aStart)
	}
}

func TestDirectContrDeterministicPerSeed(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	in := randCoreInstance(r, 4, false)
	horizon := in.Horizon()
	a := Run(DirectContrAlgorithm(), in, horizon, 9)
	b := Run(DirectContrAlgorithm(), in, horizon, 9)
	for i := range a.Starts {
		if a.Starts[i] != b.Starts[i] {
			t.Fatalf("DIRECTCONTR with equal seeds diverged at start %d", i)
		}
	}
}

// Utilities reported by the Result must sum to its Value for every
// algorithm (the characteristic function is the sum of utilities).
func TestResultValueConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	in := randCoreInstance(r, 3, false)
	horizon := in.Horizon() + 3
	for _, a := range []StepperAlgorithm{RefAlgorithm{}, RandAlgorithm{Samples: 8}, DirectContrAlgorithm()} {
		res := Run(a, in, horizon, 2)
		var sum int64
		for _, p := range res.Psi {
			sum += p
		}
		if sum != res.Value {
			t.Errorf("%s: Σψ = %d, Value = %d", a.Name(), sum, res.Value)
		}
		if res.Horizon != horizon {
			t.Errorf("%s: horizon = %d", a.Name(), res.Horizon)
		}
	}
}
