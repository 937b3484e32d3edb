// Command paperexp regenerates every table and figure of the paper's
// evaluation section (Skowron & Rzadca, SPAA 2013):
//
//	paperexp -table1            # Table 1: Δψ/p_tot, horizon 5·10⁴
//	paperexp -table2            # Table 2: Δψ/p_tot, horizon 5·10⁵
//	paperexp -fig10             # Figure 10: unfairness vs organizations
//	paperexp -fig7              # Figure 7: greedy utilization gap
//	paperexp -fig2              # Figure 2: worked utility example
//	paperexp -fed               # federated delegation-policy comparison
//	paperexp -admission         # admission-control ablation under overload
//	paperexp -all               # everything above
//
// -fed extends the evaluation toward the federated-clouds follow-up:
// the default three-cluster diurnal scenario is routed under every
// policy named by -fed-policies (local / leastloaded / fairness /
// fairness-capacity / fairness-decay / fedref / fedref-sample<N> /
// fednbs — the Nash-bargaining split of the same federation game —
// plus the re-delegating fedref-migrate / fairness-migrate /
// fednbs-migrate variants tuned by
// -fed-migration-budget), reporting offloaded fraction, federation-wide
// value and federation-level Δψ/p_tot against the local-only routing
// of the same instances.
//
// -admission sweeps the internal/ctrl admission-control variants
// (always / tokenbucket / backpressure, -admission-variants) over
// offered-load multipliers (-admission-loads), reporting admitted and
// rejected fractions, Δψ/p_tot against the ungated run of the same
// instance, and mean admission-decision latency; -admission-routing
// picks the delegation policy under the gate and -admission-staleness
// the age bound of the load view decisions observe. -fed-clusters and -fed-orgs resize the grid;
// above 16 members FedREF's exact Shapley evaluator is infeasible and
// the fedref-sample<N> budgets are the sampled-Shapley ablation
// (routing quality vs estimator budget, EXPERIMENTS.md §3).
//
// Workload families are scaled-down replicas of the archive traces by
// default (see DESIGN.md); -scale=full restores the original processor
// counts (slow). -instances controls the number of sampled sub-traces
// per cell (the paper uses 100). -horizon1/-horizon2 override the two
// table horizons — the paper's values are the defaults; tiny values
// make smoke runs cheap.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/model"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "paperexp:", err)
		os.Exit(1)
	}
}

// run executes the experiment selection; split from main so the CLI
// smoke tests drive the full path with tiny budgets.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("paperexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table1    = fs.Bool("table1", false, "reproduce Table 1 (horizon 5e4)")
		table2    = fs.Bool("table2", false, "reproduce Table 2 (horizon 5e5)")
		fig10     = fs.Bool("fig10", false, "reproduce Figure 10 (unfairness vs #organizations)")
		fig7      = fs.Bool("fig7", false, "reproduce Figure 7 (greedy utilization gap)")
		fig2      = fs.Bool("fig2", false, "reproduce Figure 2 (worked utility example)")
		all       = fs.Bool("all", false, "reproduce everything")
		instances = fs.Int("instances", 20, "instances per cell (paper: 100)")
		samples   = fs.Int("rand-n", 15, "RAND sample count N (paper: 15 and 75)")
		seed      = fs.Int64("seed", 1, "base random seed")
		scale     = fs.String("scale", "small", "workload scale: small | full")
		maxOrgs   = fs.Int("max-orgs", 7, "largest organization count for -fig10 (paper: 10)")
		workers   = fs.Int("workers", 0, "parallel instance workers (0 = GOMAXPROCS)")
		rotate    = fs.Bool("rotate", false, "use REF's within-instant rotation mode")
		driver    = fs.String("ref-driver", "heap", "REF event loop: heap (the touched-set mode, the default) or scan (the reference mode)")
		horizon1  = fs.Int64("horizon1", 50000, "Table 1 / Figure 10 horizon")
		horizon2  = fs.Int64("horizon2", 500000, "Table 2 horizon")

		fedTable     = fs.Bool("fed", false, "compare delegation policies on the federated diurnal grid")
		fedHorizon   = fs.Int64("fed-horizon", 8000, "federated experiment horizon")
		fedPolicies  = fs.String("fed-policies", "local,leastloaded,fairness,fedref,fedref-migrate,fednbs", "comma-separated delegation policies for -fed")
		fedAlg       = fs.String("fed-alg", "directcontr", "member-cluster algorithm for -fed")
		fedStaleness = fs.Int64("fed-staleness", 0, "summary gossip staleness Δt for -fed (0 = fresh every release)")
		fedMigBudget = fs.Int("fed-migration-budget", 0, "per-refresh migration cap for -migrate policies (0 = policy default, negative disables)")
		fedClusters  = fs.Int("fed-clusters", 0, "member-cluster count for -fed (0 = scenario default; >16 forces FedREF onto the sampled estimator)")
		fedOrgs      = fs.Int("fed-orgs", 0, "organization count for -fed (0 = scenario default)")

		admTable     = fs.Bool("admission", false, "run the admission-control ablation on the federated diurnal grid")
		admHorizon   = fs.Int64("admission-horizon", 8000, "admission ablation horizon")
		admVariants  = fs.String("admission-variants", "always,tokenbucket,backpressure", "comma-separated admission variants for -admission")
		admLoads     = fs.String("admission-loads", "1,1.5,2", "comma-separated offered-load multipliers for -admission")
		admRouting   = fs.String("admission-routing", "leastloaded", "delegation policy the admission ablation routes under")
		admStaleness = fs.Int64("admission-staleness", 0, "snapshot staleness Δt admission decisions observe (0 = fresh)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !(*table1 || *table2 || *fig10 || *fig7 || *fig2 || *fedTable || *admTable || *all) {
		fs.Usage()
		return fmt.Errorf("nothing selected (want -table1, -table2, -fig10, -fig7, -fig2, -fed, -admission or -all)")
	}
	refDriver, err := core.ParseRefDriver(*driver)
	if err != nil {
		return err
	}
	refOpts := core.RefOptions{Rotate: *rotate, Driver: refDriver}
	configs := func(horizon model.Time) []exp.Config {
		var out []exp.Config
		for _, f := range gen.Families() {
			if *scale == "full" {
				f = f.Scale(gen.FullScaleFactor(f))
			}
			cfg := exp.DefaultConfig(f)
			cfg.Horizon = horizon
			cfg.Instances = *instances
			cfg.Seed = *seed
			cfg.Workers = *workers
			cfg.RefOpts = refOpts
			out = append(out, cfg)
		}
		return out
	}
	algs := exp.DefaultAlgorithms(*samples)

	if *all || *fig2 {
		r := exp.Figure2()
		fmt.Fprintln(stdout, "=== Figure 2: the strategy-proof utility ψsp on a worked schedule ===")
		fmt.Fprint(stdout, r.Gantt)
		fmt.Fprint(stdout, r.Legend)
		fmt.Fprintf(stdout, "ψsp(O1, t=13) = %d   (paper: 262)\n", r.Psi13)
		fmt.Fprintf(stdout, "ψsp(O1, t=14) = %d   (paper: 297)\n", r.Psi14)
		fmt.Fprintf(stdout, "flow time(14) = %d   (paper: 70)\n\n", r.Flow14)
	}
	if *all || *fig7 {
		r := exp.Figure7()
		fmt.Fprintln(stdout, "=== Figure 7: greedy algorithms and resource utilization (T=6) ===")
		fmt.Fprintln(stdout, "O2 scheduled first:")
		fmt.Fprint(stdout, r.GanttO2First)
		fmt.Fprintf(stdout, "utilization = %.2f   (paper: 1.00)\n", r.UtilizationO2First)
		fmt.Fprintln(stdout, "O1 scheduled first:")
		fmt.Fprint(stdout, r.GanttO1First)
		fmt.Fprintf(stdout, "utilization = %.2f   (paper: 0.75 — the tight 3/4 bound of Theorem 6.2)\n\n", r.UtilizationO1First)
	}
	if *all || *table1 {
		t, err := exp.UnfairnessTable(configs(model.Time(*horizon1)), algs)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, t.Render(fmt.Sprintf(
			"=== Table 1: average job delay Δψ/p_tot, horizon %d, %d instances, scale=%s ===",
			*horizon1, *instances, *scale)))
		fmt.Fprintln(stdout)
	}
	if *all || *table2 {
		t, err := exp.UnfairnessTable(configs(model.Time(*horizon2)), algs)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, t.Render(fmt.Sprintf(
			"=== Table 2: average job delay Δψ/p_tot, horizon %d, %d instances, scale=%s ===",
			*horizon2, *instances, *scale)))
		fmt.Fprintln(stdout)
	}
	if *all || *fig10 {
		base := exp.DefaultConfig(gen.LPCEGEE())
		base.Horizon = model.Time(*horizon1)
		base.Instances = *instances
		base.Seed = *seed
		base.Workers = *workers
		base.RefOpts = refOpts
		var ks []int
		for k := 2; k <= *maxOrgs; k++ {
			ks = append(ks, k)
		}
		t, err := exp.OrgCountSweep(base, ks, algs)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, t.RenderSeries(fmt.Sprintf(
			"=== Figure 10: Δψ/p_tot vs number of organizations (LPC-EGEE, %d instances) ===",
			*instances)))
		fmt.Fprintln(stdout)
	}
	if *all || *fedTable {
		cfg := exp.DefaultFedConfig()
		if *scale != "full" {
			cfg.Scenario.Base = cfg.Scenario.Base.Scale(0.2)
		}
		if *fedClusters > 0 {
			cfg.Scenario.Clusters = *fedClusters
		}
		if *fedOrgs > 0 {
			cfg.Scenario.Orgs = *fedOrgs
		}
		cfg.Horizon = model.Time(*fedHorizon)
		cfg.Instances = *instances
		cfg.Seed = *seed
		cfg.Alg = *fedAlg
		cfg.Samples = *samples
		cfg.RefOpts = refOpts
		cfg.Workers = *workers
		cfg.Staleness = model.Time(*fedStaleness)
		cfg.MigrationBudget = *fedMigBudget
		var names []string
		for _, name := range strings.Split(*fedPolicies, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
		t, err := exp.FedPolicyTable(cfg, names)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, t.Render(fmt.Sprintf(
			"=== Federated delegation: %d clusters, %s members, horizon %d, staleness %d, %d instances, scale=%s ===",
			cfg.Scenario.Clusters, cfg.Alg, cfg.Horizon, cfg.Staleness, cfg.Instances, *scale)))
		fmt.Fprintln(stdout)
	}
	if *all || *admTable {
		cfg := exp.DefaultAdmissionConfig()
		if *scale != "full" {
			cfg.Scenario.Base = cfg.Scenario.Base.Scale(0.2)
		}
		cfg.Horizon = model.Time(*admHorizon)
		cfg.Instances = *instances
		cfg.Seed = *seed
		cfg.Alg = *fedAlg
		cfg.Samples = *samples
		cfg.RefOpts = refOpts
		cfg.Workers = *workers
		cfg.Policy = *admRouting
		cfg.Staleness = model.Time(*admStaleness)
		loads, err := parseLoads(*admLoads)
		if err != nil {
			return err
		}
		cfg.LoadFactors = loads
		variants, err := pickVariants(exp.DefaultAdmissionVariants(cfg.Scenario), *admVariants)
		if err != nil {
			return err
		}
		t, err := exp.AdmissionTable(cfg, variants)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, t.Render(fmt.Sprintf(
			"=== Admission control: %s routing, horizon %d, staleness %d, loads %s, %d instances, scale=%s ===",
			cfg.Policy, cfg.Horizon, cfg.Staleness, *admLoads, cfg.Instances, *scale)))
		fmt.Fprintln(stdout)
	}
	return nil
}

// parseLoads parses the comma-separated load-multiplier list.
func parseLoads(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad load factor %q (want a positive number)", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no load factors in %q", s)
	}
	return out, nil
}

// pickVariants selects admission variants by name from the calibrated
// defaults, preserving the order given on the command line.
func pickVariants(all []exp.AdmissionVariant, names string) ([]exp.AdmissionVariant, error) {
	var out []exp.AdmissionVariant
	for _, name := range strings.Split(names, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		found := false
		for _, v := range all {
			if v.Name == name {
				out = append(out, v)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown admission variant %q (want always, tokenbucket or backpressure)", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no admission variants selected")
	}
	return out, nil
}
