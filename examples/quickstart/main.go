// Quickstart: two organizations share a four-machine pool. Organization
// A contributes three machines but few jobs; organization B contributes
// one machine and floods the system. The Shapley-fair schedulers give
// A's rare jobs immediate service — it "paid" for that with its idle
// machines — while round-robin treats both organizations alike.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/vis"
)

func buildInstance() *model.Instance {
	jobs := []model.Job{}
	// B submits a burst of 30 size-4 jobs at t=0.
	for i := 0; i < 30; i++ {
		jobs = append(jobs, model.Job{Org: 1, Release: 0, Size: 4})
	}
	// A submits a handful of short jobs while B's backlog drains.
	for _, r := range []model.Time{8, 9, 16, 17, 24} {
		jobs = append(jobs, model.Job{Org: 0, Release: r, Size: 2})
	}
	return model.MustNewInstance(
		[]model.Org{
			{Name: "A (3 machines, 5 jobs)", Machines: 3},
			{Name: "B (1 machine, 30 jobs)", Machines: 1},
		},
		jobs,
	)
}

func main() {
	const horizon = 60
	algorithms := []core.StepperAlgorithm{
		core.RefAlgorithm{},
		core.DirectContrAlgorithm(),
		core.FromPolicy("RoundRobin", func() sim.Policy { return baseline.NewRoundRobin() }),
	}
	ref := core.Run(algorithms[0], buildInstance(), horizon, 1)
	for _, alg := range algorithms {
		res := core.Run(alg, buildInstance(), horizon, 1)
		fmt.Printf("=== %s ===\n", res.Algorithm)
		for i, psi := range res.Psi {
			name := buildInstance().Orgs[i].Name
			if res.Phi != nil {
				fmt.Printf("  %-24s ψ = %5d   φ = %8.1f\n", name, psi, res.Phi[i])
			} else {
				fmt.Printf("  %-24s ψ = %5d\n", name, psi)
			}
		}
		fmt.Printf("  unfairness Δψ/p_tot vs REF = %.2f\n",
			metrics.UnfairnessPerUnit(res.Psi, ref.Psi, ref.Ptot))
		fmt.Printf("  utilization = %.2f\n\n", res.Utilization)
	}
	// Show when A's five jobs started under each algorithm.
	fmt.Println("Start times of A's jobs (released at 8, 9, 16, 17, 24):")
	for _, alg := range algorithms {
		res := core.Run(alg, buildInstance(), horizon, 1)
		var starts []model.Time
		for _, s := range res.Starts {
			if s.Org == 0 {
				starts = append(starts, s.At)
			}
		}
		fmt.Printf("  %-14s %v\n", res.Algorithm, starts)
	}
	fmt.Println()
	res := core.Run(core.DirectContrAlgorithm(), buildInstance(), horizon, 1)
	fmt.Println("DIRECTCONTR schedule:")
	fmt.Print(vis.Gantt(buildInstance(), res.Starts, 4, horizon, 80))
}
