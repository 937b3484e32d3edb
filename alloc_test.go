// Allocation budgets of the admission control plane, held as upper
// bounds on a whole construct → feed → step run. The steady-state
// 0-alloc budgets live next to the code they pin (internal/core,
// internal/engine, internal/fed, internal/bargain); these rows span
// engine, fed and ctrl, so they sit at the module root.
package repro_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/engine"
	"repro/internal/fed"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestControlPlaneAllocBudget: a fixed overload stream (two
// organizations, 2× one machine's service rate) through a
// policy-scheduled engine, and through the same cluster gated — a
// one-member federation — with always-admit (the bare
// queue-verdict-route pass) and with the shedding policies; plus the
// federated plane over the diurnal scenario, routed by load and, gated,
// by fednbs-migrate, whose budget holds FedNBS to one bargaining solve
// per gossip (per-job solves cost 1 710). A run may allocate less than
// its budget, never more; testdata/work.golden holds each exact count
// (go test . -run TestControlPlaneAllocBudget -update rewrites it), so a
// change that moves one names the move.
func TestControlPlaneAllocBudget(t *testing.T) {
	gateOrgs := []model.Org{{Name: "A", Machines: 1}, {Name: "B", Machines: 0}}
	var gateJobs []model.Job
	for i := 0; i < 40; i++ {
		gateJobs = append(gateJobs, model.Job{Org: i % 2, Size: 4, Release: model.Time(2 * i)})
	}
	fcfs := core.FromPolicy("FCFS", func() sim.Policy { return baseline.NewFCFS() })
	engineRun := func() {
		inst, err := model.NewInstance(gateOrgs, nil)
		if err != nil {
			t.Fatal(err)
		}
		e := engine.New(fcfs, inst, 1)
		if _, err := e.Feed(gateJobs); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Step(400); err != nil {
			t.Fatal(err)
		}
	}
	singleRun := func(spec *ctrl.PolicySpec) func() {
		return func() {
			cluster := []fed.ClusterSpec{{Name: "cluster0", Alg: fcfs, Machines: []int{1, 0}}}
			f, err := fed.New([]string{"A", "B"}, cluster, fed.LocalOnly{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			f.SetStaleness(spec.Staleness)
			if err := f.SetAdmission(spec); err != nil {
				t.Fatal(err)
			}
			for _, j := range gateJobs {
				if _, err := f.Submit(0, j.Org, j.Size, j.Release); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := f.Step(400); err != nil {
				t.Fatal(err)
			}
		}
	}

	scen := gen.DefaultFedScenario()
	scen.Base = scen.Base.Scale(0.1)
	const fedHorizon = model.Time(3000)
	w, err := scen.Generate(fedHorizon, stats.NewRand(42))
	if err != nil {
		t.Fatal(err)
	}
	// The names are made once, outside the runs: fmt's buffer pool drops
	// a random share of its buffers under the race detector, which would
	// make the counts vary from run to run there.
	siteNames := make([]string, len(w.Machines))
	for c := range siteNames {
		siteNames[c] = fmt.Sprintf("site%d", c)
	}
	fedRun := func(policy fed.Policy, spec *ctrl.PolicySpec) func() {
		return func() {
			specs := make([]fed.ClusterSpec, len(w.Machines))
			for c := range specs {
				specs[c] = fed.ClusterSpec{
					Name: siteNames[c],
					Alg:  core.DirectContrAlgorithm(), Machines: w.Machines[c],
				}
			}
			f, err := fed.New(w.Orgs, specs, policy, 42)
			if err != nil {
				t.Fatal(err)
			}
			f.SetStaleness(100)
			if err := f.SetAdmission(spec); err != nil {
				t.Fatal(err)
			}
			for c, js := range w.Jobs {
				for _, j := range js {
					if _, err := f.Submit(c, j.Org, j.Size, j.Release); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := f.Step(fedHorizon); err != nil {
				t.Fatal(err)
			}
		}
	}

	tokenBucket := &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 1, Period: 12, Burst: 2, MaxAttempts: 3}
	fednbsMigrate := fed.Migrating{Inner: fed.NBSPolicy{}, Budget: fed.DefaultMigrationBudget}
	lines := []string{"# Allocations per run (testing.AllocsPerRun, 10 runs) of TestControlPlaneAllocBudget's construct → feed → step rows, beside each row's budget."}
	rows := []struct {
		name   string
		run    func()
		budget float64
	}{
		{"engine/off", engineRun, 61},
		{"single/always", singleRun(&ctrl.PolicySpec{Policy: "always"}), 320},
		{"single/tokenbucket", singleRun(&ctrl.PolicySpec{Policy: "tokenbucket", Rate: 1, Period: 8, Burst: 1, MaxAttempts: 2}), 340},
		{"single/backpressure-stale", singleRun(&ctrl.PolicySpec{Policy: "backpressure", MaxWaiting: 2, RetryAfter: 3, MaxAttempts: 4, Staleness: 20}), 140},
		{"fed/off", fedRun(fed.LeastLoaded{}, nil), 475},
		{"fed/always", fedRun(fed.LeastLoaded{}, &ctrl.PolicySpec{Policy: "always"}), 484},
		{"fed/tokenbucket", fedRun(fed.LeastLoaded{}, tokenBucket), 496},
		{"fed/fednbs-migrate-tokenbucket", fedRun(fednbsMigrate, tokenBucket), 690},
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			got := testing.AllocsPerRun(10, tc.run)
			if got > tc.budget {
				t.Errorf("%.0f allocs per run, budget is %.0f", got, tc.budget)
			}
			lines = append(lines, fmt.Sprintf("%s allocs=%.0f budget=%.0f", tc.name, got, tc.budget))
		})
	}
	if len(lines) != 1+len(rows) { // a -run filter that selects some rows checks only their budgets
		return
	}
	got := strings.Join(lines, "\n") + "\n"
	t.Log("\n" + got)
	const golden = "testdata/work.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the allocation counts moved (rewrite with -update if that is meant):\ngot:\n%swant:\n%s", got, want)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/work.golden")
