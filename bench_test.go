// Benchmarks regenerating every table and figure of the paper's
// evaluation section, plus ablations for the design choices called out
// in DESIGN.md.
//
//	go test -bench=Table1 -benchmem        # Table 1 rows (Δψ/p_tot)
//	go test -bench=Table2 -benchmem        # Table 2 rows (longer horizon)
//	go test -bench=Figure10 -benchmem      # Figure 10 series (orgs sweep)
//	go test -bench=Figure7 -benchmem       # Figure 7 utilization pair
//	go test -bench=Figure2 -benchmem       # Figure 2 worked example
//	go test -bench=Ablation -benchmem      # REF parallel/rotate ablations
//
// Each (workload, algorithm) sub-benchmark reports the paper's metric as
// "delay/job" (the average unjustified per-job delay Δψ/p_tot). The
// workloads are scaled-down replicas — see DESIGN.md §3; absolute
// values differ from the paper, the ordering and trends are the
// reproduction target. cmd/paperexp regenerates the full-size tables.
package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fed"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/utility"
)

const (
	benchScale    = 0.35 // family scale factor for bench-speed workloads
	benchOrgs     = 5
	benchHorizon1 = model.Time(15000)  // Table 1 horizon (paper: 5·10⁴)
	benchHorizon2 = model.Time(150000) // Table 2 horizon (paper: 5·10⁵), ×10 like the paper
)

// benchKey identifies a memoized instance + REF reference run.
type benchKey struct {
	family  string
	horizon model.Time
	orgs    int
	seed    int64
}

type benchRef struct {
	inst *model.Instance
	ref  *core.Result
}

var benchCache sync.Map

// referenceFor generates (once) the instance for the key and its REF
// reference result.
func referenceFor(b *testing.B, fam gen.Family, horizon model.Time, orgs int, seed int64) benchRef {
	key := benchKey{fam.Name, horizon, orgs, seed}
	if v, ok := benchCache.Load(key); ok {
		return v.(benchRef)
	}
	machines := stats.ZipfSplit(fam.Procs, orgs, 1)
	inst, err := fam.Instance(horizon, orgs, machines, stats.NewRand(seed))
	if err != nil {
		b.Fatal(err)
	}
	ref := core.RefAlgorithm{}.Run(inst, horizon, seed)
	v := benchRef{inst: inst, ref: ref}
	benchCache.Store(key, v)
	return v
}

// benchUnfairness is the shared body of the table/figure benchmarks:
// every iteration runs the algorithm on a fresh seeded instance and the
// average Δψ/p_tot is reported as delay/job.
func benchUnfairness(b *testing.B, fam gen.Family, horizon model.Time, orgs int, alg core.Algorithm) {
	var sum float64
	for i := 0; i < b.N; i++ {
		r := referenceFor(b, fam, horizon, orgs, int64(1+i%4)) // cycle 4 instances
		res := alg.Run(r.inst, horizon, int64(i))
		sum += metrics.UnfairnessPerUnit(res.Psi, r.ref.Psi, r.ref.Ptot)
	}
	b.ReportMetric(sum/float64(b.N), "delay/job")
}

func benchFamilies() []gen.Family {
	fams := gen.Families()
	for i := range fams {
		fams[i] = fams[i].Scale(benchScale)
	}
	return fams
}

// BenchmarkTable1 regenerates Table 1: Δψ/p_tot per (workload,
// algorithm) at the short horizon.
func BenchmarkTable1(b *testing.B) {
	for _, fam := range benchFamilies() {
		for _, alg := range exp.DefaultAlgorithms(15) {
			b.Run(fmt.Sprintf("%s/%s", fam.Name, alg.Name()), func(b *testing.B) {
				benchUnfairness(b, fam, benchHorizon1, benchOrgs, alg)
			})
		}
	}
}

// BenchmarkTable2 regenerates Table 2: the same grid at a 10× longer
// horizon — the paper's observation is that unfairness grows with trace
// length.
func BenchmarkTable2(b *testing.B) {
	for _, fam := range benchFamilies() {
		for _, alg := range exp.DefaultAlgorithms(15) {
			b.Run(fmt.Sprintf("%s/%s", fam.Name, alg.Name()), func(b *testing.B) {
				benchUnfairness(b, fam, benchHorizon2, benchOrgs, alg)
			})
		}
	}
}

// BenchmarkFigure10 regenerates Figure 10: unfairness versus the number
// of organizations on the LPC-EGEE-like family.
func BenchmarkFigure10(b *testing.B) {
	fam := gen.LPCEGEE().Scale(benchScale)
	for k := 2; k <= 6; k++ {
		for _, alg := range exp.DefaultAlgorithms(15) {
			b.Run(fmt.Sprintf("orgs=%d/%s", k, alg.Name()), func(b *testing.B) {
				benchUnfairness(b, fam, benchHorizon1, k, alg)
			})
		}
	}
}

// BenchmarkFigure7 regenerates the greedy-utilization gap: the two
// priority orders of the Figure 7 instance, reporting utilization.
func BenchmarkFigure7(b *testing.B) {
	orders := map[string][]int{"O2first": {1, 0}, "O1first": {0, 1}}
	for name, order := range orders {
		order := order
		b.Run(name, func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				r := exp.Figure7()
				if order[0] == 1 {
					util = r.UtilizationO2First
				} else {
					util = r.UtilizationO1First
				}
			}
			b.ReportMetric(util, "utilization")
		})
	}
}

// BenchmarkFigure2 evaluates the worked utility example (and doubles as
// a ψsp micro-benchmark).
func BenchmarkFigure2(b *testing.B) {
	var psi int64
	for i := 0; i < b.N; i++ {
		r := exp.Figure2()
		psi = r.Psi14
	}
	b.ReportMetric(float64(psi), "psi14")
}

// BenchmarkAblationREF compares the faithful Figure 3 selection ("heap",
// the touched-set loop's wire name) with the Distance-style rotation.
func BenchmarkAblationREF(b *testing.B) {
	fam := gen.LPCEGEE().Scale(benchScale)
	machines := stats.ZipfSplit(fam.Procs, benchOrgs, 1)
	inst, err := fam.Instance(benchHorizon1, benchOrgs, machines, stats.NewRand(3))
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		opts core.RefOptions
	}{
		{"heap", core.RefOptions{}},
		{"rotate", core.RefOptions{Rotate: true}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.RefAlgorithm{Opts: v.opts}.Run(inst, benchHorizon1, 0)
			}
		})
	}
}

// BenchmarkAblationREFScaling measures REF's FPT scaling in the number
// of organizations (Proposition 3.4: O(k·3^k) per decision). The
// touched-set loop steps only to instants where a schedule can decide
// and advances only the clusters they touch; what that saves against
// stepping every schedule to every event is core's TestTouchedSetDensity
// counter.
func BenchmarkAblationREFScaling(b *testing.B) {
	fam := gen.LPCEGEE().Scale(0.2)
	for k := 2; k <= 8; k++ {
		b.Run(fmt.Sprintf("orgs=%d", k), func(b *testing.B) {
			machines := stats.ZipfSplit(fam.Procs, k, 1)
			inst, err := fam.Instance(5000, k, machines, stats.NewRand(4))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.RefAlgorithm{}.Run(inst, 5000, 0)
			}
		})
	}
}

// BenchmarkAblationRandSamples sweeps RAND's permutation budget (the
// paper evaluates N=15 and N=75): fairness improves and cost grows with
// N.
func BenchmarkAblationRandSamples(b *testing.B) {
	fam := gen.LPCEGEE().Scale(benchScale)
	for _, n := range []int{5, 15, 75} {
		alg := core.RandAlgorithm{Samples: n}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			benchUnfairness(b, fam, benchHorizon1, benchOrgs, alg)
		})
	}
}

// BenchmarkFederation measures federated multi-cluster scheduling
// end-to-end: the default three-cluster diurnal scenario is generated
// once, then driven through internal/fed under each delegation policy
// — the baselines, the pricing ablations (capacity-normalized and
// time-decayed φ−ψ credit), the federation-level Shapley router FedREF
// and the re-delegating "-migrate" variants (queued jobs re-scored and
// migrated at each gossip refresh) — with two per-cluster algorithm
// rosters (the polynomial DIRECTCONTR everywhere, and exponential REF
// everywhere). Reported metrics: "offload%" (jobs crossing cluster
// boundaries, migrations re-pointed), "value" (the federation-wide
// coalition value Σ_c v_c) and "migrations" (queued-job
// re-delegations).
func BenchmarkFederation(b *testing.B) {
	scen := gen.DefaultFedScenario()
	scen.Base = scen.Base.Scale(0.15)
	const fedHorizon = model.Time(4000)
	w, err := scen.Generate(fedHorizon, stats.NewRand(42))
	if err != nil {
		b.Fatal(err)
	}
	algs := map[string]func() core.StepperAlgorithm{
		"directcontr": core.DirectContrAlgorithm,
		"ref":         func() core.StepperAlgorithm { return core.RefAlgorithm{} },
	}
	for _, algName := range []string{"directcontr", "ref"} {
		for _, policy := range []fed.Policy{
			fed.LocalOnly{}, fed.LeastLoaded{}, fed.FairnessAware{},
			fed.FairnessCapacity{}, fed.FairnessDecayed{}, fed.RefPolicy{},
			fed.Migrating{Inner: fed.FairnessAware{}, Budget: fed.DefaultMigrationBudget},
			fed.Migrating{Inner: fed.RefPolicy{}, Budget: fed.DefaultMigrationBudget},
		} {
			policy := policy
			mk := algs[algName]
			b.Run(fmt.Sprintf("%s/%s", algName, policy.Name()), func(b *testing.B) {
				var offload, value, migrations float64
				for i := 0; i < b.N; i++ {
					specs := make([]fed.ClusterSpec, len(w.Machines))
					for c := range specs {
						specs[c] = fed.ClusterSpec{
							Name: fmt.Sprintf("site%d", c), Alg: mk(), Machines: w.Machines[c],
						}
					}
					f, err := fed.New(w.Orgs, specs, policy, 42)
					if err != nil {
						b.Fatal(err)
					}
					// Migration is most interesting in the realistic
					// stale-gossip regime: refreshes every 100 ticks
					// delimit the re-delegation rounds.
					f.SetStaleness(100)
					for c, js := range w.Jobs {
						for _, j := range js {
							if _, err := f.Submit(c, j.Org, j.Size, j.Release); err != nil {
								b.Fatal(err)
							}
						}
					}
					if _, err := f.Step(fedHorizon); err != nil {
						b.Fatal(err)
					}
					l := f.Ledger()
					offload = 100 * l.OffloadedFraction()
					value = float64(l.FederationValue())
					migrations = float64(l.Migrations)
				}
				b.ReportMetric(offload, "offload%")
				b.ReportMetric(value, "value")
				b.ReportMetric(migrations, "migrations")
			})
		}
	}
}

// BenchmarkSimulator measures raw engine throughput (job starts per
// second) for each per-decision policy on a fixed loaded workload.
func BenchmarkSimulator(b *testing.B) {
	fam := gen.RICC().Scale(0.2)
	machines := stats.ZipfSplit(fam.Procs, benchOrgs, 1)
	inst, err := fam.Instance(20000, benchOrgs, machines, stats.NewRand(5))
	if err != nil {
		b.Fatal(err)
	}
	policies := []struct {
		name string
		mk   func() sim.Policy
	}{
		{"FCFS", func() sim.Policy { return baseline.NewFCFS() }},
		{"RoundRobin", func() sim.Policy { return baseline.NewRoundRobin() }},
		{"FairShare", func() sim.Policy { return baseline.NewFairShare() }},
		{"UtFairShare", func() sim.Policy { return baseline.NewUtFairShare() }},
		{"CurrFairShare", func() sim.Policy { return baseline.NewCurrFairShare() }},
		{"DirectContr", func() sim.Policy { return core.NewDirectContr() }},
	}
	for _, p := range policies {
		p := p
		b.Run(p.name, func(b *testing.B) {
			var starts int
			for i := 0; i < b.N; i++ {
				c := sim.New(inst, inst.Grand(), p.mk(), stats.NewRand(1))
				c.Run(20000)
				starts = len(c.Starts())
			}
			b.ReportMetric(float64(starts), "jobs")
		})
	}
}

// BenchmarkUtilityPsi is the ψsp closed-form micro-benchmark.
func BenchmarkUtilityPsi(b *testing.B) {
	execs := make([]utility.Execution, 1000)
	for i := range execs {
		execs[i] = utility.Execution{Start: model.Time(i), Size: model.Time(1 + i%17)}
	}
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += utility.Psi(execs, 5000)
	}
	_ = sink
}
