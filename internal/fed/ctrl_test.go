package fed_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/model"
)

// TestControlPlaneDifferential is the release loop's differential
// gate: with AlwaysAdmit the plane-on delivery — releases decomposed
// into prioritized arrival → admission → routing events — produces a
// byte-identical run to the plane-off delivery of the same loop, for
// every delegation policy shape over a mixed algorithm roster.
func TestControlPlaneDifferential(t *testing.T) {
	// The one combination where everything the loop does meets: a
	// migrating policy (re-delegation on refresh edges, sharing the
	// instant's memo with routing) under stale gossip, fed from a
	// streaming source one slice ahead of the stepping.
	for _, policy := range []fed.Policy{
		fed.Migrating{Inner: fed.RefPolicy{}, Budget: fed.DefaultMigrationBudget},
		fed.Migrating{Inner: fed.FairnessAware{}, Budget: fed.DefaultMigrationBudget},
	} {
		t.Run("streamed/stale/"+policy.Name(), func(t *testing.T) {
			run := func(spec *ctrl.PolicySpec) *fed.Federation {
				f, _ := emptyFederation(t, []string{"ref", "directcontr", "fairshare"}, policy, 11)
				f.SetStaleness(120)
				if err := f.SetAdmission(spec); err != nil {
					t.Fatal(err)
				}
				src, err := testScenario().Source(6000, 11)
				if err != nil {
					t.Fatal(err)
				}
				for until := model.Time(250); until <= 6000; until += 250 {
					if _, err := submitThrough(f, src, until); err != nil {
						t.Fatal(err)
					}
					if _, err := f.Step(until); err != nil {
						t.Fatal(err)
					}
				}
				if err := f.CheckConservation(); err != nil {
					t.Fatal(err)
				}
				return f
			}
			direct, gated := run(nil), run(&ctrl.PolicySpec{Policy: "always"})
			if !bytes.Equal(fingerprint(t, direct), fingerprint(t, gated)) {
				t.Fatal("always-admit control plane diverged from the plane-off loop")
			}
			if direct.Submitted() != gated.Submitted() || direct.Submitted() == 0 {
				t.Fatalf("%d and %d jobs pulled from the source", direct.Submitted(), gated.Submitted())
			}
			if direct.Ledger().Migrations == 0 {
				t.Fatal("nothing migrated — the run does not exercise re-delegation")
			}
		})
	}

	algs := []string{"ref", "directcontr", "fairshare"}
	for _, policy := range []fed.Policy{
		fed.LocalOnly{}, fed.LeastLoaded{}, fed.FairnessAware{}, fed.RefPolicy{},
		fed.Migrating{Inner: fed.RefPolicy{}, Budget: fed.DefaultMigrationBudget},
		fed.Migrating{Inner: fed.FairnessAware{}, Budget: fed.DefaultMigrationBudget},
	} {
		t.Run(policy.Name(), func(t *testing.T) {
			direct, _ := buildFederation(t, algs, policy, 11)
			gated, _ := buildFederation(t, algs, policy, 11)
			if err := gated.SetAdmission(&ctrl.PolicySpec{Policy: "always"}); err != nil {
				t.Fatal(err)
			}
			if _, err := direct.Step(6000); err != nil {
				t.Fatal(err)
			}
			if _, err := gated.Step(6000); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fingerprint(t, direct), fingerprint(t, gated)) {
				t.Fatal("always-admit control plane at staleness 0 diverged from the direct path")
			}
			if err := gated.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			st := gated.AdmissionStats()
			if st == nil {
				t.Fatal("gated federation reports no admission stats")
			}
			if st.TotalRejected() != 0 || deferred(st) != 0 {
				t.Fatalf("always-admit rejected %d / deferred %d jobs", st.TotalRejected(), deferred(st))
			}
			if st.TotalAdmitted() != gated.Submitted()-int64(gated.PendingCount()) {
				t.Fatalf("admitted %d of %d released jobs", st.TotalAdmitted(), gated.Submitted())
			}
		})
	}
}

// TestControlPlaneStalenessEquivalence: the legacy SetStaleness knob
// and the same staleness expressed through the control plane's
// CachedSnapshotProvider are one mechanism — a gated always-admit run
// at staleness Δt matches the ungated run at the same Δt byte for
// byte, including the migration pass that fires on refresh edges.
func TestControlPlaneStalenessEquivalence(t *testing.T) {
	for _, policy := range []fed.Policy{
		fed.LeastLoaded{}, fed.RefPolicy{},
		fed.Migrating{Inner: fed.RefPolicy{}, Budget: fed.DefaultMigrationBudget},
	} {
		for _, staleness := range []model.Time{40, 250} {
			t.Run(fmt.Sprintf("%s/staleness=%d", policy.Name(), staleness), func(t *testing.T) {
				legacy := stalenessFederation(t, policy, staleness)
				gated := stalenessFederation(t, policy, staleness)
				if err := gated.SetAdmission(&ctrl.PolicySpec{Policy: "always"}); err != nil {
					t.Fatal(err)
				}
				if _, err := legacy.Step(2000); err != nil {
					t.Fatal(err)
				}
				if _, err := gated.Step(2000); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fingerprint(t, legacy), fingerprint(t, gated)) {
					t.Fatal("staleness through the provider diverged from the legacy knob")
				}
			})
		}
	}
}

// TestStalenessMonotoneDegradation: as the gossip grows staler, the
// routing acts on older information and the run's federation-wide ψ
// drifts monotonically further from the always-fresh run's — staleness
// degrades fairness tracking, and more staleness never helps on this
// imbalanced scenario.
func TestStalenessMonotoneDegradation(t *testing.T) {
	psiAt := func(staleness model.Time) []int64 {
		f := stalenessFederation(t, fed.LeastLoaded{}, staleness)
		if _, err := f.Step(2000); err != nil {
			t.Fatal(err)
		}
		if err := f.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		return f.Ledger().FederationPsi()
	}
	fresh := psiAt(0)
	prev := int64(0)
	for _, staleness := range []model.Time{0, 60, 600} {
		drift := metrics.DeltaPsi(psiAt(staleness), fresh)
		if drift < prev {
			t.Fatalf("staleness %d drifted %d from fresh, less than a fresher run's %d", staleness, drift, prev)
		}
		prev = drift
	}
	if prev == 0 {
		t.Fatal("even 600-tick staleness left ψ untouched — the scenario is load-insensitive")
	}
}

// overloadFederation submits λ× the federation's service capacity over
// the horizon: 2 clusters × 3 machines serve 6 units per tick... here 4
// machines total, horizon 400 → capacity 1600 units; λ·capacity units
// are submitted as size-8 jobs round-robin across 2 orgs and origins.
func overloadFederation(t testing.TB, policy fed.Policy, load float64) *fed.Federation {
	t.Helper()
	specs := []fed.ClusterSpec{
		{Name: "a", Alg: algFactory("directcontr"), Machines: []int{1, 1}},
		{Name: "b", Alg: algFactory("directcontr"), Machines: []int{1, 1}},
	}
	f, err := fed.New([]string{"o0", "o1"}, specs, policy, 5)
	if err != nil {
		t.Fatal(err)
	}
	const horizon, size = 400, 8
	units := int64(load * 4 * horizon)
	jobs := int(units / size)
	for i := 0; i < jobs; i++ {
		release := model.Time(i) * horizon / model.Time(jobs)
		if _, err := f.Submit(i%2, i%2, size, release); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestControlPlaneOverload is the acceptance overload scenario: at load
// factor 1.5 a token-bucket plane sheds the excess — the run completes,
// rejects are substantial, and the per-organization conservation law
// (admitted + rejected + deferred == released) holds through a full
// drain of everything that was admitted.
func TestControlPlaneOverload(t *testing.T) {
	f := overloadFederation(t, fed.LeastLoaded{}, 1.5)
	// ~1 size-8 job per 16 ticks per org: half the offered per-org rate.
	spec := &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 1, Period: 16, Burst: 2, MaxAttempts: 3}
	if err := f.SetAdmission(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Step(100000); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	st := f.AdmissionStats()
	if st.TotalReleased() != f.Submitted() || f.PendingCount() != 0 {
		t.Fatalf("released %d of %d submitted (%d still pending)",
			st.TotalReleased(), f.Submitted(), f.PendingCount())
	}
	if deferred(st) != 0 {
		t.Fatalf("%d jobs still deferred after a full drain", deferred(st))
	}
	if st.TotalRejected() == 0 {
		t.Fatal("a 1.5× overload shed nothing through a half-rate token bucket")
	}
	if st.TotalAdmitted() == 0 {
		t.Fatal("the token bucket admitted nothing")
	}
	for _, org := range []int{0, 1} {
		if st.Admitted[org]+st.Rejected[org]+st.Deferred[org] != st.Released[org] {
			t.Fatalf("org %d: %d + %d + %d != %d released", org,
				st.Admitted[org], st.Rejected[org], st.Deferred[org], st.Released[org])
		}
	}
	// Decision latency is only accrued by deferred-then-resolved jobs.
	if st.Defers == nil || (st.LatencyMax == 0 && st.TotalRejected() > 0 && sumDefers(st) > 0) {
		t.Fatal("deferred admissions accrued no decision latency")
	}
}

func sumDefers(st *metrics.AdmissionStats) int64 {
	var n int64
	for _, d := range st.Defers {
		n += d
	}
	return n
}

// TestControlPlaneBackpressure: the queue-depth policy reads the
// (possibly stale) observed backlog; under overload it defers arrivals
// until the backlog drains below the bound, stays deterministic, and
// conserves.
func TestControlPlaneBackpressure(t *testing.T) {
	build := func() *fed.Federation {
		f := overloadFederation(t, fed.LeastLoaded{}, 1.5)
		if err := f.SetAdmission(&ctrl.PolicySpec{Policy: "backpressure", MaxWaiting: 4, RetryAfter: 10, MaxAttempts: 5}); err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b := build(), build()
	if _, err := a.Step(100000); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Step(100000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fingerprint(t, a), fingerprint(t, b)) {
		t.Fatal("two identically configured backpressure runs diverged")
	}
	if err := a.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	st := a.AdmissionStats()
	if sumDefers(st) == 0 {
		t.Fatal("a 1.5× overload never tripped a 4-deep backpressure bound")
	}
}

// TestControlPlaneCheckpointRestore is the acceptance checkpoint gate:
// a federation snapshotted mid-round with live control-plane state —
// deferred admission events pending, token buckets partially drained —
// restores and continues byte-identically with the uninterrupted run,
// for every member algorithm (REF and RAND exercising RNG-bearing
// engine checkpoints).
func TestControlPlaneCheckpointRestore(t *testing.T) {
	for _, alg := range []string{"ref", "rand", "directcontr", "fairshare"} {
		t.Run(alg, func(t *testing.T) {
			specs := func() []fed.ClusterSpec {
				return []fed.ClusterSpec{
					{Name: "a", Alg: algFactory(alg), Machines: []int{1, 1}},
					{Name: "b", Alg: algFactory(alg), Machines: []int{1, 1}},
				}
			}
			spec := &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 1, Period: 16, Burst: 2, MaxAttempts: 3}
			build := func() *fed.Federation {
				f, err := fed.New([]string{"o0", "o1"}, specs(), fed.LeastLoaded{}, 5)
				if err != nil {
					t.Fatal(err)
				}
				f.SetStaleness(30)
				if err := f.SetAdmission(spec); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 60; i++ {
					if _, err := f.Submit(i%2, i%2, 8, model.Time(4*i)); err != nil {
						t.Fatal(err)
					}
				}
				return f
			}
			straight := build()
			if _, err := straight.Step(4000); err != nil {
				t.Fatal(err)
			}

			half := build()
			if _, err := half.Step(90); err != nil {
				t.Fatal(err)
			}
			if deferred(half.AdmissionStats()) == 0 {
				t.Fatal("checkpoint instant carries no deferred admissions — the test is not exercising mid-round control state")
			}
			snap, err := half.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := fed.Restore([]string{"o0", "o1"}, specs(), fed.LeastLoaded{}, snap)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Admission() == nil || resumed.Admission().Policy != "tokenbucket" {
				t.Fatal("restored federation lost its admission spec")
			}
			if _, err := resumed.Step(4000); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fingerprint(t, resumed), fingerprint(t, straight)) {
				t.Fatal("restored control-plane federation diverged from uninterrupted run")
			}
			if err := resumed.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			sa, sb := straight.AdmissionStats(), resumed.AdmissionStats()
			if fmt.Sprintf("%+v", sa) != fmt.Sprintf("%+v", sb) {
				t.Fatalf("admission stats diverged:\n%+v\n%+v", sa, sb)
			}
		})
	}
}

// TestSetAdmissionValidation: bad specs fail loudly and a nil spec
// removes the plane.
func TestSetAdmissionValidation(t *testing.T) {
	f := overloadFederation(t, fed.LeastLoaded{}, 0.5)
	if err := f.SetAdmission(&ctrl.PolicySpec{Policy: "tokenbucket"}); err == nil {
		t.Fatal("a token bucket without rate/burst must not install")
	}
	if f.AdmissionStats() != nil {
		t.Fatal("a failed install left a plane behind")
	}
	if err := f.SetAdmission(&ctrl.PolicySpec{Policy: "always"}); err != nil {
		t.Fatal(err)
	}
	if f.Admission() == nil || f.AdmissionStats() == nil {
		t.Fatal("installed plane not visible")
	}
	if err := f.SetAdmission(nil); err != nil {
		t.Fatal(err)
	}
	if f.Admission() != nil || f.AdmissionStats() != nil {
		t.Fatal("nil spec did not remove the plane")
	}
}

// deferred is Σ Deferred: the jobs parked on an admission retry.
func deferred(st *metrics.AdmissionStats) int64 {
	var n int64
	for _, d := range st.Deferred {
		n += d
	}
	return n
}
