package core

import (
	"math/rand"

	"repro/internal/model"
	"repro/internal/sim"
)

// DirectContr is Algorithm DIRECTCONTR (Figure 9): a polynomial
// heuristic that skips subcoalitions entirely. An organization's
// contribution estimate φ̃ is the ψsp-value of the unit slots executed
// on its machines (whoever owned the jobs); its utility ψ is the usual
// job-owner value. Free processors are visited in random order and each
// takes a job of the organization with the largest deficit φ̃−ψ.
//
// Both quantities come straight from the simulator's per-owner accounts,
// so the policy is O(k) per decision.
type DirectContr struct {
	view *sim.View
	rng  *rand.Rand
}

// NewDirectContr returns a fresh DIRECTCONTR policy.
func NewDirectContr() *DirectContr { return &DirectContr{} }

// Name implements sim.Policy.
func (p *DirectContr) Name() string { return "DirectContr" }

// Attach implements sim.Policy.
func (p *DirectContr) Attach(v *sim.View, rng *rand.Rand) {
	p.view = v
	p.rng = rng
}

// Select implements sim.Policy: argmax(φ̃−ψ) among waiting
// organizations, low index on ties.
func (p *DirectContr) Select(_ model.Time, _ int) int {
	best := -1
	var bestDeficit int64
	for u := 0; u < p.view.Orgs(); u++ {
		if p.view.Waiting(u) == 0 {
			continue
		}
		deficit := p.view.OwnerPsi(u) - p.view.Psi(u)
		if best == -1 || deficit > bestDeficit {
			best, bestDeficit = u, deficit
		}
	}
	return best
}

// OrderMachines implements sim.MachineOrderer: Figure 9 considers the
// processors in a random order on each scheduling event.
func (p *DirectContr) OrderMachines(_ model.Time, free []int) {
	if p.rng == nil {
		return
	}
	p.rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
}

// DirectContrAlgorithm returns DIRECTCONTR as a StepperAlgorithm.
func DirectContrAlgorithm() StepperAlgorithm {
	return FromPolicy("DirectContr", func() sim.Policy { return NewDirectContr() })
}
