package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinyRun executes the CLI with a scaled-down workload and returns its
// stdout.
func tinyRun(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	base := []string{"-horizon", "1500", "-orgs", "3"}
	if err := run(append(base, args...), &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v (stderr: %s)", args, err, stderr.String())
	}
	return stdout.String()
}

func TestRunFamilyEndToEnd(t *testing.T) {
	out := tinyRun(t, "-alg", "directcontr", "-family", "lpc-egee")
	for _, want := range []string{"algorithm   : DirectContr", "machines", "value v(C)", "org0"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunRefWithCompareAndGantt(t *testing.T) {
	out := tinyRun(t, "-alg", "ref", "-family", "pik-iplex", "-horizon", "800", "-compare", "-gantt")
	for _, want := range []string{"algorithm   : REF", "REF reference value", "Δψ/p_tot"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// φ must be numeric for REF, not the "-" placeholder.
	if strings.Contains(out, "\t-\n") {
		t.Errorf("REF run reports no φ:\n%s", out)
	}
}

// -swf + instance building: generate a tiny trace with the tracegen
// library path, then schedule it.
func TestRunFromSWFTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.swf")
	swf := `; tiny test trace
1 0 -1 3 1 -1 -1 1 -1 -1 1 1 -1 -1 -1 -1 -1 -1
2 1 -1 2 2 -1 -1 2 -1 -1 1 2 -1 -1 -1 -1 -1 -1
3 4 -1 5 1 -1 -1 1 -1 -1 1 3 -1 -1 -1 -1 -1 -1
`
	if err := os.WriteFile(path, []byte(swf), 0o644); err != nil {
		t.Fatal(err)
	}
	out := tinyRun(t, "-alg", "fcfs", "-swf", path, "-machines", "4", "-horizon", "100", "-split", "uniform")
	if !strings.Contains(out, "algorithm   : FCFS") {
		t.Errorf("SWF run output:\n%s", out)
	}
	// Job 2 needs 2 processors -> sequentialized into 2 copies: 4 jobs.
	if !strings.Contains(out, "4 started of 4") {
		t.Errorf("expected all 4 sequentialized jobs to start:\n%s", out)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-alg", "nope"}, &stdout, &stderr); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// REF has one event loop and no flag to choose one.
	if err := run([]string{"-ref-driver", "heap", "-alg", "ref"}, &stdout, &stderr); err == nil {
		t.Fatal("removed -ref-driver flag accepted")
	}
	if err := run([]string{"-swf", "/nonexistent.swf"}, &stdout, &stderr); err == nil {
		t.Fatal("missing trace file accepted")
	}
	// A misspelt split is refused, as the daemon refuses it; it used to
	// run the zipf split silently.
	if err := run([]string{"-split", "unifrom", "-horizon", "100"}, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), "unknown machine split") {
		t.Fatalf("-split unifrom: err = %v, want the unknown-split refusal", err)
	}
	// The REF/RAND worker pool is gone and its flag with it: the
	// standard unknown-flag usage error, not a silent no-op.
	stderr.Reset()
	if err := run([]string{"-workers", "2"}, &stdout, &stderr); err == nil {
		t.Fatal("retired -workers flag accepted")
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -workers") {
		t.Fatalf("-workers did not produce the unknown-flag usage error: %s", stderr.String())
	}
}

// Inputs the library refuses by panicking are CLI errors: each row
// must return an error naming the flag's problem, not panic.
func TestRunRefusesOutOfRangeInputs(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-alg", "rand", "-rand-n", "0"}, "at least one sampled permutation"},
		{[]string{"-orgs", "0"}, "-orgs must be at least 1"},
		{[]string{"-horizon", "-5"}, "-horizon must not be negative"},
	} {
		var stdout, stderr bytes.Buffer
		err := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%v panicked: %v", c.args, p)
				}
			}()
			return run(append([]string{"-horizon", "300"}, c.args...), &stdout, &stderr)
		}()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want one containing %q", c.args, err, c.want)
		}
	}
}
