package exp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/fed"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/stats"
)

// Admission-table metric columns, in render order. t_decide is the
// mean admission-decision latency in simulation ticks (0 when every
// job is admitted or rejected at its arrival instant — deferred
// retries are what make it positive).
const (
	AdmMetricAdmit   = "admit%"
	AdmMetricReject  = "reject%"
	AdmMetricDelta   = "Δψ/p_tot"
	AdmMetricLatency = "t_decide"
)

// AdmissionVariant is one admission policy under comparison: a display
// name and the ctrl spec the federation's control plane is built from.
type AdmissionVariant struct {
	Name string
	Spec ctrl.PolicySpec
}

// AdmissionConfig describes the admission-control ablation: a federated
// experiment (the embedded FedConfig: scenario, horizon, member
// algorithm, and the Staleness that bounds the age of the exchange
// snapshot both routing and admission observe) swept over offered-load
// multipliers, each (variant × load) cell routed under one fixed
// delegation policy with the variant's control plane in front.
type AdmissionConfig struct {
	FedConfig
	// Policy is the delegation policy every run routes under
	// (fed.PolicyByName); the ablation varies admission, not routing.
	Policy string
	// LoadFactors multiply the scenario's offered load; factors > 1
	// are the overload regimes admission control exists for.
	LoadFactors []float64
}

// DefaultAdmissionConfig returns the -admission experiment's base
// configuration: the federated diurnal scenario under least-loaded
// routing, swept from nominal load to 2× overload.
func DefaultAdmissionConfig() AdmissionConfig {
	return AdmissionConfig{
		FedConfig:   DefaultFedConfig(),
		Policy:      "leastloaded",
		LoadFactors: []float64{1, 1.5, 2},
	}
}

// DefaultAdmissionVariants returns the compared admission policies,
// calibrated to the scenario's capacity: an ungated baseline, a
// size-cost token bucket refilling at each organization's fair share
// of the processor pool, and a queue-depth backpressure valve sized to
// the pool.
func DefaultAdmissionVariants(s gen.FedScenario) []AdmissionVariant {
	meanSize := model.Time(math.Max(1, math.Round(s.Base.Size.Mean())))
	fairShare := int64(s.Base.Procs / s.Orgs)
	if fairShare < 1 {
		fairShare = 1
	}
	return []AdmissionVariant{
		{Name: "always", Spec: ctrl.PolicySpec{Policy: "always"}},
		{Name: "tokenbucket", Spec: ctrl.PolicySpec{
			// Rate work-units per tick = the org's machine share, so the
			// bucket admits ≈ the org's sustainable load and sheds the rest.
			Policy:      "tokenbucket",
			Rate:        fairShare,
			Period:      1,
			Burst:       4 * int64(meanSize),
			SizeCost:    true,
			MaxAttempts: 3,
		}},
		{Name: "backpressure", Spec: ctrl.PolicySpec{
			Policy:      "backpressure",
			MaxWaiting:  s.Base.Procs,
			RetryAfter:  meanSize,
			MaxAttempts: 4,
		}},
	}
}

// admissionRow names one (variant, load factor) table row.
func admissionRow(name string, lf float64) string {
	return fmt.Sprintf("%s ×%.3g", name, lf)
}

// AdmissionTable runs the admission-control ablation: every sampled
// scenario instance, at every offered-load multiplier, is routed under
// every admission variant, and the admitted fraction, rejected
// fraction, unfairness Δψ/p_tot (against the ungated run of the same
// instance) and mean admission-decision latency aggregate into a
// (variant × load) × metric table.
func AdmissionTable(cfg AdmissionConfig, variants []AdmissionVariant) (*Table, error) {
	if cfg.Instances < 1 {
		return nil, fmt.Errorf("exp: admission experiment needs at least one instance")
	}
	if len(variants) == 0 {
		return nil, fmt.Errorf("exp: no admission variants selected")
	}
	if len(cfg.LoadFactors) == 0 {
		return nil, fmt.Errorf("exp: no load factors selected")
	}
	for _, lf := range cfg.LoadFactors {
		if lf <= 0 {
			return nil, fmt.Errorf("exp: load factor %v must be positive", lf)
		}
	}
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, err
	}
	// Validate every variant spec up front — a worker failing later
	// wastes the whole sweep.
	for _, v := range variants {
		if _, err := v.Spec.Build(); err != nil {
			return nil, fmt.Errorf("exp: admission variant %q: %w", v.Name, err)
		}
	}
	alg, err := cfg.memberAlg()
	if err != nil {
		return nil, err
	}
	policy, err := fed.PolicyByName(cfg.Policy)
	if err != nil {
		return nil, err
	}
	policy = fed.WithMigrationBudget(policy, cfg.MigrationBudget)
	metricsOf := []string{AdmMetricAdmit, AdmMetricReject, AdmMetricDelta, AdmMetricLatency}
	// values[load][variant][metric][instance]
	values := make([][][][]float64, len(cfg.LoadFactors))
	for l := range values {
		values[l] = make([][][]float64, len(variants))
		for v := range values[l] {
			values[l][v] = make([][]float64, len(metricsOf))
			for m := range values[l][v] {
				values[l][v][m] = make([]float64, cfg.Instances)
			}
		}
	}
	err = forInstances(cfg.Instances, cfg.Workers, func(idx int) error {
		return cfg.runAdmissionIdx(idx, alg, policy, variants, values)
	})
	if err != nil {
		return nil, err
	}
	t := newTable()
	for m, metric := range metricsOf {
		for l, lf := range cfg.LoadFactors {
			for v, variant := range variants {
				t.add(metric, admissionRow(variant.Name, lf), values[l][v][m])
			}
		}
	}
	return t, nil
}

// runAdmissionIdx generates instance idx at every load factor, runs the
// ungated reference and every variant, and fills
// values[load][variant][metric][idx].
func (cfg AdmissionConfig) runAdmissionIdx(idx int, alg core.StepperAlgorithm, policy fed.Policy, variants []AdmissionVariant, values [][][][]float64) error {
	seed := cfg.Seed + int64(idx)*1009
	for l, lf := range cfg.LoadFactors {
		scen := cfg.Scenario
		// Scale offered load by lf: Load alone is swallowed by the
		// generator's one-session-per-user floor at small scales, so the
		// user population scales with it — per-user calibration stays
		// fixed and total arrival mass grows ∝ lf in both regimes.
		scen.Base.Load *= lf
		scen.Base.Users = int(math.Max(1, math.Round(float64(scen.Base.Users)*lf)))
		w, err := scen.Generate(cfg.Horizon, stats.NewRand(seed))
		if err != nil {
			return fmt.Errorf("exp: admission instance %d ×%g: %w", idx, lf, err)
		}
		// The ungated run of the same instance is the fairness reference:
		// Δψ/p_tot isolates what shedding load does to fairness, load
		// factor by load factor.
		refLedger, _, err := runFederated(w, alg, policy, cfg.Staleness, cfg.Horizon, &ctrl.PolicySpec{Policy: "always"}, seed)
		if err != nil {
			return fmt.Errorf("exp: admission instance %d ×%g reference: %w", idx, lf, err)
		}
		refPsi, refPtot := refLedger.FederationPsi(), refLedger.TotalExecuted()
		for v, variant := range variants {
			if variant.Spec.Policy == "always" || variant.Spec.Policy == "" {
				// Reuse the reference run; its counters are all-admit.
				released := float64(w.TotalJobs())
				values[l][v][0][idx] = pct(released, released)
				values[l][v][1][idx] = 0
				values[l][v][2][idx] = 0
				values[l][v][3][idx] = 0
				continue
			}
			ledger, st, err := runFederated(w, alg, policy, cfg.Staleness, cfg.Horizon, &variant.Spec, seed)
			if err != nil {
				return fmt.Errorf("exp: admission instance %d ×%g %s: %w", idx, lf, variant.Name, err)
			}
			released := float64(st.TotalReleased())
			values[l][v][0][idx] = pct(float64(st.TotalAdmitted()), released)
			values[l][v][1][idx] = pct(float64(st.TotalRejected()), released)
			values[l][v][2][idx] = metrics.UnfairnessPerUnit(ledger.FederationPsi(), refPsi, refPtot)
			values[l][v][3][idx] = st.MeanLatency()
		}
	}
	return nil
}

// pct returns 100·a/b, 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}
