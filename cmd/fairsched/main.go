// Command fairsched runs one multi-organization scheduling simulation
// and reports per-organization utilities, contributions and fairness.
//
// Workloads come from a synthetic family or from a Standard Workload
// Format (SWF) trace file:
//
//	fairsched -family lpc-egee -alg directcontr -orgs 5 -horizon 50000
//	fairsched -swf trace.swf -alg ref -orgs 3 -horizon 10000 -gantt
//
// With -compare, the run is repeated with the exact REF algorithm and
// the unfairness Δψ/p_tot is reported.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vis"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "fairsched:", err)
		os.Exit(1)
	}
}

// run is the whole command; split from main so the CLI smoke tests can
// drive flag parsing, instance building and a full simulation without
// spawning a process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fairsched", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		family   = fs.String("family", "lpc-egee", "synthetic workload family (lpc-egee, pik-iplex, sharcnet-whale, ricc)")
		swfPath  = fs.String("swf", "", "SWF trace file (overrides -family)")
		algName  = fs.String("alg", "directcontr", "algorithm: ref, rand, directcontr, nbs, fairshare, utfairshare, currfairshare, roundrobin, fcfs")
		orgs     = fs.Int("orgs", 5, "number of organizations")
		horizon  = fs.Int64("horizon", 50000, "simulation horizon (time units)")
		seed     = fs.Int64("seed", 1, "random seed")
		samples  = fs.Int("rand-n", 15, "RAND sample count")
		strat    = fs.Bool("rand-stratified", false, "RAND: draw permutations in position-stratified rotations")
		split    = fs.String("split", "zipf", "machine split among organizations: zipf | uniform")
		machines = fs.Int("machines", 0, "total machines when using -swf (0 = #orgs)")
		gantt    = fs.Bool("gantt", false, "print an ASCII Gantt chart (small runs only)")
		compare  = fs.Bool("compare", false, "also run REF and report Δψ/p_tot")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		// The FlagSet already printed the error and usage to stderr.
		return errors.New("invalid arguments")
	}

	if *orgs < 1 {
		return fmt.Errorf("-orgs must be at least 1, got %d", *orgs)
	}
	if *horizon < 0 {
		return fmt.Errorf("-horizon must not be negative, got %d", *horizon)
	}
	inst, err := buildInstance(*swfPath, *family, *orgs, *split, *machines, model.Time(*horizon), *seed, stderr)
	if err != nil {
		return err
	}
	alg, err := core.AlgorithmByName(*algName, *samples, core.RefOptions{}, core.RandOptions{Stratified: *strat})
	if err != nil {
		return err
	}

	res := core.Run(alg, inst, model.Time(*horizon), *seed)
	fmt.Fprintf(stdout, "algorithm   : %s\n", res.Algorithm)
	fmt.Fprintf(stdout, "jobs        : %d started of %d\n", len(res.Starts), len(inst.Jobs))
	fmt.Fprintf(stdout, "machines    : %d\n", inst.TotalMachines())
	fmt.Fprintf(stdout, "horizon     : %d\n", res.Horizon)
	fmt.Fprintf(stdout, "value v(C)  : %d\n", res.Value)
	fmt.Fprintf(stdout, "utilization : %.3f\n\n", res.Utilization)

	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "org\tmachines\tjobs\tψ (utility)\tφ (contribution)")
	perOrg := make([]int, len(inst.Orgs))
	for _, j := range inst.Jobs {
		perOrg[j.Org]++
	}
	for i, o := range inst.Orgs {
		phi := "-"
		if res.Phi != nil {
			phi = fmt.Sprintf("%.1f", res.Phi[i])
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\n", o.Name, o.Machines, perOrg[i], res.Psi[i], phi)
	}
	w.Flush()

	if *compare {
		ref := core.Run(core.RefAlgorithm{}, inst, model.Time(*horizon), *seed)
		fmt.Fprintf(stdout, "\nREF reference value : %d\n", ref.Value)
		fmt.Fprintf(stdout, "Δψ (L1 distance)    : %d\n", metrics.DeltaPsi(res.Psi, ref.Psi))
		fmt.Fprintf(stdout, "Δψ/p_tot            : %.3f\n", metrics.UnfairnessPerUnit(res.Psi, ref.Psi, ref.Ptot))
	}
	if *gantt {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, vis.Gantt(inst, res.Starts, inst.TotalMachines(), model.Time(*horizon), 100))
	}
	return nil
}

func buildInstance(swfPath, family string, orgs int, split string, machines int, horizon model.Time, seed int64, stderr io.Writer) (*model.Instance, error) {
	rng := stats.NewRand(seed)
	if swfPath != "" {
		f, err := os.Open(swfPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tr, skipped, err := trace.ParseSWF(f)
		if err != nil {
			return nil, err
		}
		if skipped > 0 {
			fmt.Fprintf(stderr, "fairsched: skipped %d unusable trace records\n", skipped)
		}
		tr = tr.Sequentialize().Window(0, horizon)
		if machines <= 0 {
			machines = orgs
		}
		splits, err := stats.SplitByName(split, machines, orgs)
		if err != nil {
			return nil, err
		}
		return trace.ToInstance(tr, splits, trace.AssignUsers(tr.Users(), orgs, rng))
	}
	fam, err := gen.FamilyByName(family)
	if err != nil {
		return nil, err
	}
	splits, err := stats.SplitByName(split, fam.Procs, orgs)
	if err != nil {
		return nil, err
	}
	return fam.Instance(horizon, orgs, splits, rng)
}
