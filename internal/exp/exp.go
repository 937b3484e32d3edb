// Package exp is the experiment harness for the paper's evaluation
// (Section 7): it generates workload instances, runs the reference
// algorithm REF and the compared algorithms on each, and aggregates the
// unfairness measure Δψ/p_tot into the paper's table and figure
// layouts.
//
// Instances run concurrently on a worker pool; aggregation is
// deterministic (per-instance values are collected in index order
// before summarizing), so a (config, seed) pair always reproduces the
// same numbers.
package exp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/stats"
)

// Config describes one workload-family experiment.
type Config struct {
	Family gen.Family
	// Orgs is the number of organizations (the paper uses 5 for the
	// tables, 2..10 for Figure 10).
	Orgs      int
	Horizon   model.Time
	Instances int
	Seed      int64
	// Workers bounds the instance-level parallelism; 0 = GOMAXPROCS.
	Workers int
	RefOpts core.RefOptions
}

// DefaultConfig returns the tables' base configuration for a family:
// 5 organizations, Zipf(1) machine split, horizon 5·10⁴.
func DefaultConfig(f gen.Family) Config {
	return Config{
		Family:    f,
		Orgs:      5,
		Horizon:   50000,
		Instances: 20,
		Seed:      1,
	}
}

// DefaultAlgorithms returns the compared algorithms in the tables' row
// order (Section 7.1), resolved by core.AlgorithmByName. randSamples
// parameterizes RAND (the paper uses 15 and 75); it panics if
// randSamples < 1, which the registry refuses.
func DefaultAlgorithms(randSamples int) []core.Algorithm {
	var algs []core.Algorithm
	for _, name := range []string{"roundrobin", "rand", "directcontr", "fairshare", "utfairshare", "currfairshare", "nbs"} {
		alg, err := core.AlgorithmByName(name, randSamples, core.RefOptions{}, core.RandOptions{})
		if err != nil {
			panic("exp: " + err.Error())
		}
		algs = append(algs, alg)
	}
	return algs
}

// Table is a workloads × algorithms grid of unfairness summaries.
type Table struct {
	Workloads  []string
	Algorithms []string
	Cells      map[string]map[string]*stats.Summary // workload -> algorithm -> summary
}

func newTable() *Table {
	return &Table{Cells: map[string]map[string]*stats.Summary{}}
}

func (t *Table) add(workload, alg string, values []float64) {
	if t.Cells[workload] == nil {
		t.Cells[workload] = map[string]*stats.Summary{}
		t.Workloads = append(t.Workloads, workload)
	}
	s := &stats.Summary{}
	for _, v := range values {
		s.Add(v)
	}
	t.Cells[workload][alg] = s
	found := false
	for _, a := range t.Algorithms {
		if a == alg {
			found = true
			break
		}
	}
	if !found {
		t.Algorithms = append(t.Algorithms, alg)
	}
}

// Get returns the summary for a (workload, algorithm) pair, or nil.
func (t *Table) Get(workload, alg string) *stats.Summary {
	if m := t.Cells[workload]; m != nil {
		return m[alg]
	}
	return nil
}

// forInstances runs fn(idx) for every idx in [0, n) on a pool of at
// most workers goroutines (≤ 0 = GOMAXPROCS); every instance runs, and
// the failures, if any, come back joined in index order.
func forInstances(n, workers int, fn func(idx int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := int(next.Add(1)) - 1; idx < n; idx = int(next.Add(1)) - 1 {
				errs[idx] = fn(idx)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// RunUnfairness measures Δψ/p_tot for every algorithm over
// cfg.Instances generated instances. The returned matrix is indexed
// [algorithm][instance].
func RunUnfairness(cfg Config, algs []core.Algorithm) ([][]float64, error) {
	values := make([][]float64, len(algs))
	for i := range values {
		values[i] = make([]float64, cfg.Instances)
	}
	err := forInstances(cfg.Instances, cfg.Workers, func(idx int) error {
		return runInstance(cfg, algs, idx, values)
	})
	return values, err
}

// runInstance generates instance idx, computes the REF reference and
// fills values[alg][idx] for every algorithm.
func runInstance(cfg Config, algs []core.Algorithm, idx int, values [][]float64) error {
	seed := cfg.Seed + int64(idx)*1009
	rng := stats.NewRand(seed)
	inst, err := cfg.Family.Instance(cfg.Horizon, cfg.Orgs, stats.ZipfSplit(cfg.Family.Procs, cfg.Orgs, 1), rng)
	if err != nil {
		return fmt.Errorf("exp: instance %d: %w", idx, err)
	}
	refRes := core.RefAlgorithm{Opts: cfg.RefOpts}.Run(inst, cfg.Horizon, seed)
	for a, alg := range algs {
		res := alg.Run(inst, cfg.Horizon, seed*31+int64(a))
		values[a][idx] = metrics.UnfairnessPerUnit(res.Psi, refRes.Psi, refRes.Ptot)
	}
	return nil
}

// UnfairnessTable runs the full table experiment: every family config
// against every algorithm (Tables 1 and 2 of the paper, depending on
// the configs' horizon).
func UnfairnessTable(cfgs []Config, algs []core.Algorithm) (*Table, error) {
	t := newTable()
	for _, cfg := range cfgs {
		vals, err := RunUnfairness(cfg, algs)
		if err != nil {
			return nil, err
		}
		for a, alg := range algs {
			t.add(cfg.Family.Name, alg.Name(), vals[a])
		}
	}
	return t, nil
}

// OrgCountSweep is the Figure 10 experiment: unfairness as a function
// of the number of organizations, on one family.
func OrgCountSweep(base Config, orgCounts []int, algs []core.Algorithm) (*Table, error) {
	t := newTable()
	for _, k := range orgCounts {
		cfg := base
		cfg.Orgs = k
		vals, err := RunUnfairness(cfg, algs)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("k=%d", k)
		for a, alg := range algs {
			t.add(label, alg.Name(), vals[a])
		}
	}
	return t, nil
}
