package exp

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/fed"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/stats"
)

// Federated-table metric columns, in render order.
const (
	FedMetricOffload = "offload%"
	FedMetricValue   = "value"
	FedMetricDelta   = "Δψ/p_tot"
)

// FedConfig describes one federated-delegation experiment: a
// gen.FedScenario (the diurnal multi-cluster grid), a horizon, and the
// member algorithm every cluster runs. Each sampled instance is routed
// under every compared policy, with the local-only run of the same
// instance as the fairness reference.
type FedConfig struct {
	Scenario  gen.FedScenario
	Horizon   model.Time
	Instances int
	Seed      int64
	// Alg names the per-member scheduling algorithm (AlgorithmByName);
	// Samples, RefOpts and RandOpts parameterize it.
	Alg      string
	Samples  int
	RefOpts  core.RefOptions
	RandOpts core.RandOptions
	// Workers bounds instance-level parallelism; 0 = GOMAXPROCS.
	Workers int
	// Staleness is the summary-gossip staleness Δt passed to every
	// federation (0 = idealized fresh exchange).
	Staleness model.Time
	// MigrationBudget overrides the per-refresh re-delegation cap of
	// "-migrate" policies (fed.WithMigrationBudget semantics: positive
	// replaces, negative disables, zero keeps the policy default).
	MigrationBudget int
}

// DefaultFedConfig returns the -fed experiment's base configuration:
// the default three-cluster diurnal scenario under DIRECTCONTR members.
func DefaultFedConfig() FedConfig {
	return FedConfig{
		Scenario:  gen.DefaultFedScenario(),
		Horizon:   8000,
		Instances: 10,
		Seed:      1,
		Alg:       "directcontr",
		Samples:   15,
	}
}

// memberAlg resolves the configured member algorithm.
func (cfg FedConfig) memberAlg() (core.StepperAlgorithm, error) {
	samples := cfg.Samples
	if samples <= 0 {
		samples = 15
	}
	alg, err := AlgorithmByName(cfg.Alg, samples, cfg.RefOpts, cfg.RandOpts)
	if err != nil {
		return nil, err
	}
	stepper, ok := alg.(core.StepperAlgorithm)
	if !ok {
		return nil, fmt.Errorf("exp: member algorithm %q cannot run incrementally", alg.Name())
	}
	return stepper, nil
}

// runFedInstance routes one generated workload under one policy and
// returns the drained ledger.
func (cfg FedConfig) runFedInstance(w *gen.FedWorkload, alg core.StepperAlgorithm, policy fed.Policy, seed int64) (*fed.Ledger, error) {
	specs := make([]fed.ClusterSpec, len(w.Machines))
	for c := range specs {
		specs[c] = fed.ClusterSpec{Name: fmt.Sprintf("site%d", c), Alg: alg, Machines: w.Machines[c]}
	}
	f, err := fed.New(w.Orgs, specs, policy, seed)
	if err != nil {
		return nil, err
	}
	f.SetStaleness(cfg.Staleness)
	for c, js := range w.Jobs {
		if err := f.SubmitJobs(c, js); err != nil {
			return nil, err
		}
	}
	if _, err := f.Step(cfg.Horizon); err != nil {
		return nil, err
	}
	if err := f.CheckConservation(); err != nil {
		return nil, fmt.Errorf("exp: policy %q broke conservation: %w", policy.Name(), err)
	}
	return f.Ledger(), nil
}

// FedPolicyTable runs the federated policy comparison: every sampled
// scenario instance is routed under every named delegation policy, and
// the offloaded fraction, federation-wide value and federation-level
// unfairness Δψ/p_tot (against the local-only routing of the same
// instance) are aggregated into a policy × metric table.
func FedPolicyTable(cfg FedConfig, policyNames []string) (*Table, error) {
	if cfg.Instances < 1 {
		return nil, fmt.Errorf("exp: federated experiment needs at least one instance")
	}
	if len(policyNames) == 0 {
		return nil, fmt.Errorf("exp: no delegation policies selected")
	}
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, err
	}
	alg, err := cfg.memberAlg()
	if err != nil {
		return nil, err
	}
	policies := make([]fed.Policy, len(policyNames))
	for i, name := range policyNames {
		if policies[i], err = fed.PolicyByName(name); err != nil {
			return nil, err
		}
		policies[i] = fed.WithMigrationBudget(policies[i], cfg.MigrationBudget)
	}
	metricsOf := []string{FedMetricOffload, FedMetricValue, FedMetricDelta}
	// values[policy][metric][instance]
	values := make([][][]float64, len(policies))
	for p := range values {
		values[p] = make([][]float64, len(metricsOf))
		for m := range values[p] {
			values[p][m] = make([]float64, cfg.Instances)
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Instances {
		workers = cfg.Instances
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if err := cfg.runFedIdx(idx, alg, policies, values); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for idx := 0; idx < cfg.Instances; idx++ {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	t := newTable()
	for m, metric := range metricsOf {
		for p, policy := range policies {
			t.add(metric, policy.Name(), values[p][m])
		}
	}
	return t, nil
}

// runFedIdx generates instance idx, computes its local-only reference
// and fills values[policy][metric][idx].
func (cfg FedConfig) runFedIdx(idx int, alg core.StepperAlgorithm, policies []fed.Policy, values [][][]float64) error {
	seed := cfg.Seed + int64(idx)*1009
	w, err := cfg.Scenario.Generate(cfg.Horizon, stats.NewRand(seed))
	if err != nil {
		return fmt.Errorf("exp: federated instance %d: %w", idx, err)
	}
	ref, err := cfg.runFedInstance(w, alg, fed.LocalOnly{}, seed)
	if err != nil {
		return fmt.Errorf("exp: federated instance %d reference: %w", idx, err)
	}
	refPsi, refPtot := ref.FederationPsi(), ref.TotalExecuted()
	for p, policy := range policies {
		var l *fed.Ledger
		if policy.Name() == (fed.LocalOnly{}).Name() {
			l = ref // the reference run is the local-only row
		} else if l, err = cfg.runFedInstance(w, alg, policy, seed); err != nil {
			return fmt.Errorf("exp: federated instance %d: %w", idx, err)
		}
		values[p][0][idx] = 100 * l.OffloadedFraction()
		values[p][1][idx] = float64(l.FederationValue())
		values[p][2][idx] = metrics.UnfairnessPerUnit(l.FederationPsi(), refPsi, refPtot)
	}
	return nil
}
