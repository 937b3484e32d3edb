// Package core implements the paper's primary contribution: fair
// scheduling of a multi-organization system by the Shapley value of the
// cooperative game whose coalition value is the sum of the members'
// strategy-proof utilities ψsp.
//
// Three schedulers are provided:
//
//   - Ref — Algorithm REF (Figures 1 and 3): the exact, exponential
//     reference. It maintains a full greedy schedule for every non-empty
//     subcoalition, derives exact Shapley contributions φ from the
//     subcoalition values at every decision instant, and always starts a
//     job of the organization with the largest deficit φ−ψ.
//   - RandSched — Algorithm RAND (Figure 6): the sampled-permutation
//     approximation, an FPRAS for unit-size jobs (Theorems 5.6–5.7) and
//     a practical heuristic otherwise.
//   - DirectContr — Algorithm DIRECTCONTR (Figure 9): the polynomial
//     heuristic that estimates an organization's contribution directly
//     as the ψsp-value of the unit slots executed on its machines.
//
// Nbs, the Nash-bargaining allocator, joins them as a non-Shapley
// solution concept on the same game. Every scheduler, and every
// baseline wrapped with FromPolicy, is a StepperAlgorithm: Run drives
// one to a horizon for the experiment harness, the engine steps one
// event by event, and both step the one schedule-set event loop in
// schedset.go: Ref, RandSched, Nbs and the FromPolicy algorithms are
// plugs on it that say which schedules exist and what the
// largest-deficit rule aims at. (DirectContr itself is a sim.Policy,
// run through FromPolicy.)
package core

import (
	"repro/internal/model"
	"repro/internal/sim"
)

// Result is the outcome of running one scheduling algorithm on one
// instance up to a horizon.
type Result struct {
	Algorithm string
	Horizon   model.Time
	// Psi is each organization's strategy-proof utility ψsp at the
	// horizon in the grand-coalition schedule.
	Psi []int64
	// Phi is each organization's estimated (or exact, for REF) Shapley
	// contribution at the horizon; nil for algorithms that do not
	// compute contributions.
	Phi []float64
	// Value is Σ Psi — the grand coalition's value v(C, horizon).
	Value int64
	// Ptot is the number of executed unit slots — the paper's p_tot
	// when the result comes from the reference algorithm.
	Ptot int64
	// Starts is the full schedule (one record per started job).
	Starts []sim.Start
	// Utilization is the fraction of machine capacity used by the
	// horizon.
	Utilization float64
}

// Run is the batch contract: it runs alg on the instance from scratch
// to the horizon and reports the grand-coalition schedule and its
// utilities, deterministically given (instance, until, seed). It drains
// the stepper the engine steps event by event, so batch and streaming
// runs execute identical code.
func Run(alg StepperAlgorithm, inst *model.Instance, until model.Time, seed int64) *Result {
	return runStepper(alg.NewStepper(inst, seed), until)
}

// FromPolicy wraps a per-decision sim.Policy as an algorithm running on
// the grand coalition, one schedule stepped by the schedule-set loop.
// factory must return a fresh policy per run.
func FromPolicy(name string, factory func() sim.Policy) StepperAlgorithm {
	return &policyAlgorithm{name: name, factory: factory}
}

type policyAlgorithm struct {
	name    string
	factory func() sim.Policy
}

func (a *policyAlgorithm) Name() string { return a.name }

// runStepper drains s to the horizon and builds the result — the batch
// contract expressed in the incremental vocabulary.
func runStepper(s Stepper, until model.Time) *Result {
	for s.StepNext(until) {
	}
	s.FinishAt(until)
	return s.ResultAt(until)
}

func resultFromCluster(name string, c *sim.Cluster, until model.Time, phi []float64) *Result {
	return &Result{
		Algorithm:   name,
		Horizon:     until,
		Psi:         c.PsiVector(),
		Phi:         phi,
		Value:       c.Value(),
		Ptot:        c.ExecutedUnits(),
		Starts:      c.Starts(),
		Utilization: c.Utilization(),
	}
}
