package main

import (
	"bytes"
	"strings"
	"testing"
)

// tinyRun executes the CLI with scaled-down budgets and returns stdout.
func tinyRun(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v (stderr: %s)", args, err, stderr.String())
	}
	return stdout.String()
}

// The worked examples (Figures 2 and 7) are exact: the smoke test pins
// the paper's numbers, not just the rendering.
func TestRunFigures(t *testing.T) {
	out := tinyRun(t, "-fig2", "-fig7")
	for _, want := range []string{
		"ψsp(O1, t=13) = 262",
		"ψsp(O1, t=14) = 297",
		"flow time(14) = 70",
		"utilization = 1.00",
		"utilization = 0.75",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// The table harness end to end at a toy horizon: every family row
// renders with every algorithm column.
func TestRunTable1Tiny(t *testing.T) {
	out := tinyRun(t, "-table1", "-horizon1", "300", "-instances", "1", "-rand-n", "2")
	for _, want := range []string{"Table 1", "LPC-EGEE", "PIK-IPLEX", "SHARCNET-Whale", "RICC", "Rand(N=2)", "DirectContr", "FairShare"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

// The Figure 10 organization sweep at a toy horizon.
func TestRunFig10Tiny(t *testing.T) {
	out := tinyRun(t, "-fig10", "-horizon1", "200", "-instances", "1", "-rand-n", "2", "-max-orgs", "3")
	for _, want := range []string{"Figure 10", "k=2", "k=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}
}

// The federated delegation table at a toy budget: every policy row and
// metric column renders, including the FedREF routing.
func TestRunFedTiny(t *testing.T) {
	out := tinyRun(t, "-fed", "-fed-horizon", "1200", "-instances", "2",
		"-fed-policies", "local,leastloaded,fairness,fairness-decay,fedref")
	for _, want := range []string{"Federated delegation", "offload%", "value", "Δψ/p_tot",
		"local", "leastloaded", "fairness", "fairness-decay", "fedref"} {
		if !strings.Contains(out, want) {
			t.Errorf("federated table missing %q:\n%s", want, out)
		}
	}
}

// The staleness knob reaches the harness: a stale run still renders.
func TestRunFedStaleTiny(t *testing.T) {
	out := tinyRun(t, "-fed", "-fed-horizon", "1000", "-instances", "1",
		"-fed-staleness", "400", "-fed-policies", "local,fedref")
	if !strings.Contains(out, "staleness 400") {
		t.Errorf("staleness not threaded through:\n%s", out)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err == nil {
		t.Fatal("empty selection accepted")
	}
	// REF has one event loop and no flag to choose one.
	if err := run([]string{"-table1", "-ref-driver", "heap"}, &stdout, &stderr); err == nil {
		t.Fatal("removed -ref-driver flag accepted")
	}
	if err := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-fed", "-fed-policies", "bogus", "-instances", "1"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown delegation policy accepted")
	}
	// RAND needs a sampled permutation: an error before any table
	// starts, not a panic in an instance worker.
	for _, n := range []string{"0", "-1"} {
		err := run([]string{"-table1", "-horizon1", "200", "-instances", "1", "-rand-n", n}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "-rand-n must be at least 1") {
			t.Fatalf("-rand-n %s: err = %v", n, err)
		}
	}
}

// The admission ablation at a toy budget: every (variant × load) row
// and metric column renders, and overload rows actually shed load.
func TestRunAdmissionTiny(t *testing.T) {
	out := tinyRun(t, "-admission", "-admission-horizon", "1200", "-instances", "1",
		"-admission-loads", "1,2")
	for _, want := range []string{"Admission control", "admit%", "reject%", "Δψ/p_tot", "t_decide",
		"always ×1", "tokenbucket ×2", "backpressure ×2"} {
		if !strings.Contains(out, want) {
			t.Errorf("admission table missing %q:\n%s", want, out)
		}
	}
}

func TestRunAdmissionRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-admission", "-admission-variants", "bogus", "-instances", "1"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown admission variant accepted")
	}
	if err := run([]string{"-admission", "-admission-loads", "0", "-instances", "1"}, &stdout, &stderr); err == nil {
		t.Fatal("zero load factor accepted")
	}
	if err := run([]string{"-admission", "-admission-routing", "bogus", "-instances", "1"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown routing policy accepted")
	}
}
