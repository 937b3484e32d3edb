// Example federation demonstrates federated multi-cluster scheduling:
// three clusters with staggered diurnal load peaks and heterogeneous
// machine counts run the same generated workload under each delegation
// policy — local-only (no federation), greedy least-loaded, and
// fairness-aware contribution-credit routing — and the federation-wide
// ledger shows what delegation buys. The fairness-aware run is then
// checkpointed mid-flight and resumed, finishing with identical
// accounting.
//
//	go run ./examples/federation
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/stats"
)

const (
	horizon = model.Time(4000)
	seed    = int64(42)
)

func main() {
	scen := gen.DefaultFedScenario()
	scen.Base = scen.Base.Scale(0.15) // keep the demo snappy
	w, err := scen.Generate(horizon, stats.NewRand(seed))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario: %d clusters, %d orgs, %d jobs over [0,%d)\n",
		scen.Clusters, scen.Orgs, w.TotalJobs(), horizon)
	for c, row := range w.Machines {
		fmt.Printf("  site%d: machines per org %v, %d home submissions\n", c, row, len(w.Jobs[c]))
	}

	// Run the identical workload under each delegation policy. Every
	// cluster schedules with DIRECTCONTR — the polynomial contribution
	// heuristic — so the fairness-aware policy has φ estimates to
	// route on.
	policies := []fed.Policy{fed.LocalOnly{}, fed.LeastLoaded{}, fed.FairnessAware{}}
	ledgers := make([]*fed.Ledger, len(policies))
	for i, p := range policies {
		f := build(w, p)
		if _, err := f.Step(horizon); err != nil {
			log.Fatal(err)
		}
		if err := f.CheckConservation(); err != nil {
			log.Fatal(err)
		}
		ledgers[i] = f.Ledger()
	}

	local := ledgers[0]
	fmt.Println("\n== delegation policies on the same workload ==")
	fmt.Printf("%-14s %10s %10s %12s %14s\n", "policy", "offloaded", "value", "executed", "Δψ vs local")
	for i, p := range policies {
		l := ledgers[i]
		fmt.Printf("%-14s %9.1f%% %10d %12d %14d\n",
			p.Name(), 100*l.OffloadedFraction(), l.FederationValue(), l.TotalExecuted(),
			metrics.DeltaPsi(l.FederationPsi(), local.FederationPsi()))
	}

	fair := ledgers[2]
	fmt.Println("\n== fairness-aware routing matrix (origin → executing site) ==")
	for o, row := range fair.Routed {
		fmt.Printf("  site%d → %v\n", o, row)
	}
	fmt.Println("\n== per-cluster vs federation-wide ψ (fairness-aware) ==")
	for c := range fair.Psi {
		fmt.Printf("  site%d ψ=%v value=%d executed=%d\n", c, fair.Psi[c], fair.Value[c], fair.Executed[c])
	}
	fmt.Printf("  federation ψ=%v value=%d\n", fair.FederationPsi(), fair.FederationValue())

	// Checkpoint/restore: stop the fairness-aware run halfway,
	// serialize the whole federation, resume it in a fresh one, and
	// finish — the accounting matches the uninterrupted run exactly.
	half := build(w, fed.FairnessAware{})
	if _, err := half.Step(horizon / 2); err != nil {
		log.Fatal(err)
	}
	snap, err := half.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	resumed, err := fed.Restore(w.Orgs, specs(w), fed.FairnessAware{}, snap)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := resumed.Step(horizon); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== checkpoint/restore ==\n")
	fmt.Printf("snapshot at t=%d: %d bytes, %d decisions so far\n",
		horizon/2, len(snap), len(half.Decisions()))
	rl := resumed.Ledger()
	fmt.Printf("resumed run finishes with value=%d executed=%d (uninterrupted: value=%d executed=%d)\n",
		rl.FederationValue(), rl.TotalExecuted(), fair.FederationValue(), fair.TotalExecuted())
	if rl.FederationValue() != fair.FederationValue() || rl.TotalExecuted() != fair.TotalExecuted() {
		log.Fatal("resumed run diverged from uninterrupted run")
	}
}

// specs wires the generated machine grid into member cluster specs.
func specs(w *gen.FedWorkload) []fed.ClusterSpec {
	out := make([]fed.ClusterSpec, len(w.Machines))
	for c := range out {
		out[c] = fed.ClusterSpec{
			Name:     fmt.Sprintf("site%d", c),
			Alg:      core.DirectContrAlgorithm(),
			Machines: w.Machines[c],
		}
	}
	return out
}

// build assembles a federation over the workload and submits every
// cluster's home stream (arrivals stay pending until release).
func build(w *gen.FedWorkload, policy fed.Policy) *fed.Federation {
	f, err := fed.New(w.Orgs, specs(w), policy, seed)
	if err != nil {
		log.Fatal(err)
	}
	for c, js := range w.Jobs {
		for _, j := range js {
			if _, err := f.Submit(c, j.Org, j.Size, j.Release); err != nil {
				log.Fatal(err)
			}
		}
	}
	return f
}
