package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ctrl"
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
	// Alg names the per-member scheduling algorithm (core.AlgorithmByName);
	// Samples and RefOpts parameterize it.
	Alg     string
	Samples int
	RefOpts core.RefOptions
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
	return core.AlgorithmByName(cfg.Alg, samples, cfg.RefOpts, core.RandOptions{})
}

// runFederated routes one generated workload under one delegation
// policy — behind the given admission control plane, if any — to the
// horizon, and returns the drained ledger and the plane's accounting
// (nil without a plane).
func runFederated(w *gen.FedWorkload, alg core.StepperAlgorithm, policy fed.Policy, staleness, horizon model.Time, admission *ctrl.PolicySpec, seed int64) (*fed.Ledger, *metrics.AdmissionStats, error) {
	specs := make([]fed.ClusterSpec, len(w.Machines))
	for c := range specs {
		specs[c] = fed.ClusterSpec{Name: fmt.Sprintf("site%d", c), Alg: alg, Machines: w.Machines[c]}
	}
	f, err := fed.New(w.Orgs, specs, policy, seed)
	if err != nil {
		return nil, nil, err
	}
	f.SetStaleness(staleness)
	if err := f.SetAdmission(admission); err != nil {
		return nil, nil, err
	}
	for c, js := range w.Jobs {
		for _, j := range js {
			if _, err := f.Submit(c, j.Org, j.Size, j.Release); err != nil {
				return nil, nil, err
			}
		}
	}
	if _, err := f.Step(horizon); err != nil {
		return nil, nil, err
	}
	if err := f.CheckConservation(); err != nil {
		return nil, nil, fmt.Errorf("exp: policy %q broke conservation: %w", policy.Name(), err)
	}
	return f.Ledger(), f.AdmissionStats(), nil
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
	err = forInstances(cfg.Instances, cfg.Workers, func(idx int) error {
		return cfg.runFedIdx(idx, alg, policies, values)
	})
	if err != nil {
		return nil, err
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
	ref, _, err := runFederated(w, alg, fed.LocalOnly{}, cfg.Staleness, cfg.Horizon, nil, seed)
	if err != nil {
		return fmt.Errorf("exp: federated instance %d reference: %w", idx, err)
	}
	refPsi, refPtot := ref.FederationPsi(), ref.TotalExecuted()
	for p, policy := range policies {
		var l *fed.Ledger
		if policy.Name() == (fed.LocalOnly{}).Name() {
			l = ref // the reference run is the local-only row
		} else if l, _, err = runFederated(w, alg, policy, cfg.Staleness, cfg.Horizon, nil, seed); err != nil {
			return fmt.Errorf("exp: federated instance %d: %w", idx, err)
		}
		values[p][0][idx] = 100 * l.OffloadedFraction()
		values[p][1][idx] = float64(l.FederationValue())
		values[p][2][idx] = metrics.UnfairnessPerUnit(l.FederationPsi(), refPsi, refPtot)
	}
	return nil
}
