// Consortium: the paper's motivating scenario at realistic scale. Five
// organizations of very different sizes (Zipf machine split) federate
// their clusters; jobs arrive in per-user bursts from a synthetic
// LPC-EGEE-like trace. The example reproduces, on one instance, the
// evaluation pipeline behind the paper's Table 1: run the exact fair
// algorithm REF as reference, then measure how far each practical
// scheduler drifts from it.
//
// Run with:
//
//	go run ./examples/consortium
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/stats"
)

func main() {
	const (
		orgs    = 5
		horizon = model.Time(20000)
		seed    = 42
	)
	family := gen.LPCEGEE()
	machines := stats.ZipfSplit(family.Procs, orgs, 1)
	inst, err := family.Instance(horizon, orgs, machines, stats.NewRand(seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("consortium: %d organizations, %d machines %v, %d jobs over %d time units\n\n",
		orgs, inst.TotalMachines(), machines, len(inst.Jobs), horizon)

	fmt.Println("Reference run (REF, exact Shapley contributions):")
	ref := core.Run(core.RefAlgorithm{}, inst, horizon, seed)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  org\tmachines\tψ (utility)\tφ (contribution)\tφ−ψ")
	for i, o := range inst.Orgs {
		fmt.Fprintf(w, "  %s\t%d\t%d\t%.0f\t%+.0f\n",
			o.Name, o.Machines, ref.Psi[i], ref.Phi[i], ref.Phi[i]-float64(ref.Psi[i]))
	}
	w.Flush()
	fmt.Printf("  (a positive φ−ψ means the organization is still owed service)\n\n")

	fmt.Println("Unfairness Δψ/p_tot of the practical algorithms on this instance:")
	for _, alg := range exp.DefaultAlgorithms(15) {
		res := core.Run(alg, inst, horizon, seed)
		fmt.Printf("  %-16s %8.2f\n", res.Algorithm,
			metrics.UnfairnessPerUnit(res.Psi, ref.Psi, ref.Ptot))
	}
	fmt.Println("\nThe Shapley-aware schedulers (Rand, DirectContr) track the exact")
	fmt.Println("fair schedule far more closely than static-share fair share — the")
	fmt.Println("paper's central experimental claim.")
}
