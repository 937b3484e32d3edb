package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// benchmarkFile is BENCHMARK.json. The A/A mode applies its bounds; the
// tests hold the rest to the program.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// worseBy is how much worse b reads than a, as a share of a, in the
// metric's bad direction (negative when b is better).
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// aaRepeats is how many runs of each workload go into each A/A set.
// The sets are compared on their medians, as the driver compares
// commits, and their runs alternate (A B A B …) so that the slow drift
// of a shared machine's speed lands on both sets alike.
const aaRepeats = 3

// runAA measures every selected workload as two sets of aaRepeats runs
// of the same binary and holds the sets' medians to every bound in
// BENCHMARK.json, in both directions: neither set may read worse than
// the other by more than the bound. An A/A failure means the bound is
// tighter than the benchmark's own noise on this machine — no later
// comparison under it can be trusted.
func (b *bench) runAA(ws []*workload, o options) error {
	data, err := os.ReadFile(filepath.Join(b.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	violations := 0
	var table strings.Builder
	fmt.Fprintf(&table, "\n%-14s %-20s %14s %14s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "worse", "bound", "verdict")
	for _, w := range ws {
		var values [2]map[string][]float64
		failed := 0
		for i := 0; i < 2*aaRepeats; i++ {
			set := i % 2
			b.logf("--- A/A %s: set %c, run %d of %d\n", w.name, 'A'+set, i/2+1, aaRepeats)
			res, err := b.runE2E(w, o.seed, o.seconds)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			failed += res.Failed
			if values[set] == nil {
				values[set] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[set][name] = append(values[set][name], m.Value)
			}
		}
		for _, e := range bf.EndToEnd {
			x, y := median(values[0][e.Name]), median(values[1][e.Name])
			worse := worseBy(e.Better, x, y)
			if back := worseBy(e.Better, y, x); back > worse {
				worse = back
			}
			verdict := "ok"
			if worse > e.Bound {
				verdict = "VIOLATION"
				violations++
			}
			fmt.Fprintf(&table, "%-14s %-20s %14.6g %14.6g %7.1f%% %6.1f%%  %s\n", w.name, e.Name, x, y, 100*worse, 100*e.Bound, verdict)
		}
		verdict := "ok"
		if failed > 0 {
			verdict = "VIOLATION"
			violations++
		}
		fmt.Fprintf(&table, "%-14s %-20s %14d %14s %8s %7s  %s\n", w.name, "failed operations", failed, "", "", "0", verdict)
	}
	b.logf("%s", table.String())
	if violations > 0 {
		return fmt.Errorf("A/A: %d violation(s) of the benchmark's own bounds", violations)
	}
	b.logf("A/A: both sets agree within every bound\n")
	return nil
}
