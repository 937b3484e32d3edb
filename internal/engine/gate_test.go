package engine_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/engine"
	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/model"
)

// An engine runs ungated. A gated single cluster is a one-member
// federation — local routing, the admission view's staleness as its
// gossip staleness — whose control plane delivers each release before
// the member dispatches the instant; these tests hold it to the
// single-cluster behavior the gate promises.

// gatedCluster builds the one-member federation that gates a single
// cluster of the given organizations (their machine counts; speeds are
// not a federation member's to have).
func gatedCluster(t testing.TB, alg core.StepperAlgorithm, orgs []model.Org, seed int64, spec *ctrl.PolicySpec) *fed.Federation {
	t.Helper()
	names := make([]string, len(orgs))
	machines := make([]int, len(orgs))
	for o, org := range orgs {
		names[o], machines[o] = org.Name, org.Machines
	}
	f, err := fed.New(names, []fed.ClusterSpec{{Name: "cluster0", Alg: alg, Machines: machines}}, fed.LocalOnly{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	f.SetStaleness(spec.Staleness)
	if err := f.SetAdmission(spec); err != nil {
		t.Fatal(err)
	}
	return f
}

// member is the gated cluster's engine.
func member(f *fed.Federation) *engine.Engine { return f.Members()[0].Engine() }

// feedStreaming drives a run through the standard online pattern: jobs
// handed in just before their release instants, interleaved with
// 3-tick steps, then a final step to the horizon. feed hands in one
// batch, step advances.
func feedStreaming(t testing.TB, feed func([]model.Job) error, step func(model.Time) error, jobs []model.Job, horizon model.Time) {
	t.Helper()
	next := 0
	for tm := model.Time(0); tm < horizon; tm += 3 {
		lo := next
		for next < len(jobs) && jobs[next].Release <= tm {
			next++
		}
		if err := feed(jobs[lo:next]); err != nil {
			t.Fatalf("feed at %d: %v", tm, err)
		}
		if err := step(tm); err != nil {
			t.Fatalf("step to %d: %v", tm, err)
		}
	}
	if next < len(jobs) {
		t.Fatalf("test bug: %d jobs never fed", len(jobs)-next)
	}
	if err := step(horizon); err != nil {
		t.Fatal(err)
	}
}

// streamEngine and streamFed are feedStreaming over an engine and over
// a federation.
func streamEngine(t testing.TB, e *engine.Engine, jobs []model.Job, horizon model.Time) {
	feedStreaming(t, func(b []model.Job) error { _, err := e.Feed(b); return err },
		func(tm model.Time) error { _, err := e.Step(tm); return err }, jobs, horizon)
}

func streamFed(t testing.TB, f *fed.Federation, jobs []model.Job, horizon model.Time) {
	feedStreaming(t, func(b []model.Job) error {
		for _, j := range b {
			if _, err := f.Submit(0, j.Org, j.Size, j.Release); err != nil {
				return err
			}
		}
		return nil
	}, func(tm model.Time) error { _, err := f.Step(tm); return err }, jobs, horizon)
}

// TestGateDifferential is the single-cluster half of the acceptance
// differential: a cluster gated by AlwaysAdmit at staleness 0 produces
// a byte-identical run — same decision trace, ψ, bitwise φ — to the
// ungated engine on the member's seed, for every algorithm.
func TestGateDifferential(t *testing.T) {
	for _, alg := range engine.Steppers() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				r := rand.New(rand.NewSource(900 + seed))
				inst := engine.TestInstance(r, 2+r.Intn(4))
				for o := range inst.Orgs {
					inst.Orgs[o].Speeds = nil
				}
				horizon := inst.Horizon() + 2

				gated := gatedCluster(t, alg, inst.Orgs, seed, &ctrl.PolicySpec{Policy: "always"})
				streamFed(t, gated, inst.Jobs, horizon)

				empty, err := model.NewInstance(inst.Orgs, nil)
				if err != nil {
					t.Fatal(err)
				}
				plain := engine.New(alg, empty, member(gated).Seed())
				streamEngine(t, plain, inst.Jobs, horizon)

				engine.AssertSameRun(t, "gated vs direct", plain.Result(), member(gated).Result(), plain.Decisions(), member(gated).Decisions())
				st := gated.AdmissionStats()
				if st.TotalRejected() != 0 || deferred(st) != 0 {
					t.Fatalf("always-admit rejected %d / deferred %d", st.TotalRejected(), deferred(st))
				}
				if st.TotalAdmitted() != int64(len(inst.Jobs)) {
					t.Fatalf("admitted %d of %d fed jobs", st.TotalAdmitted(), len(inst.Jobs))
				}
			}
		})
	}
}

// gateWorkload is a deterministic overload: one machine, two orgs,
// size-4 jobs every 2 ticks — 2× the service rate.
func gateWorkload() ([]model.Org, []model.Job) {
	orgs := []model.Org{{Name: "A", Machines: 1}, {Name: "B", Machines: 0}}
	var jobs []model.Job
	for i := 0; i < 40; i++ {
		jobs = append(jobs, model.Job{Org: i % 2, Size: 4, Release: model.Time(2 * i)})
	}
	return orgs, jobs
}

// TestGateTokenBucketOverload: a token bucket in front of a saturated
// cluster sheds load — the run completes with substantial rejects and
// the per-organization conservation law intact.
func TestGateTokenBucketOverload(t *testing.T) {
	orgs, jobs := gateWorkload()
	// ~1 size-4 job per 8 ticks: half the offered rate per org pair.
	f := gatedCluster(t, engine.Steppers()[0], orgs, 1, &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 1, Period: 8, Burst: 1, MaxAttempts: 2})
	streamFed(t, f, jobs, 400)
	st := f.AdmissionStats()
	if err := st.CheckConserved(); err != nil {
		t.Fatal(err)
	}
	if st.TotalReleased() != 40 || deferred(st) != 0 {
		t.Fatalf("released %d (deferred %d) after a full drain, fed 40", st.TotalReleased(), deferred(st))
	}
	if st.TotalRejected() == 0 || st.TotalAdmitted() == 0 {
		t.Fatalf("overload shed nothing or everything: %d admitted, %d rejected", st.TotalAdmitted(), st.TotalRejected())
	}
	if got := int64(len(member(f).Instance().Jobs)); got != st.TotalAdmitted() {
		t.Fatalf("%d jobs reached the schedule, %d admitted", got, st.TotalAdmitted())
	}
}

// TestGateBackpressureStaleness: queue-depth admission acting on a
// bounded-staleness load view stays deterministic and conserves; the
// stale view changes decisions relative to the fresh one.
func TestGateBackpressureStaleness(t *testing.T) {
	run := func(staleness model.Time) *fed.Federation {
		orgs, jobs := gateWorkload()
		spec := &ctrl.PolicySpec{Policy: "backpressure", MaxWaiting: 2, RetryAfter: 3, MaxAttempts: 4, Staleness: staleness}
		f := gatedCluster(t, engine.Steppers()[0], orgs, 1, spec)
		streamFed(t, f, jobs, 400)
		if err := f.AdmissionStats().CheckConserved(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b := run(20), run(20)
	if fmt.Sprintf("%+v", a.AdmissionStats()) != fmt.Sprintf("%+v", b.AdmissionStats()) {
		t.Fatal("two identically configured stale-view runs diverged")
	}
	fresh := run(0)
	if fmt.Sprintf("%+v", fresh.AdmissionStats()) == fmt.Sprintf("%+v", a.AdmissionStats()) {
		t.Fatal("a 20-tick-stale load view admitted identically to a fresh one — the staleness knob is inert at the gate")
	}
	if deferred(fresh.AdmissionStats()) != 0 || deferred(a.AdmissionStats()) != 0 {
		t.Fatal("jobs left deferred after a full drain")
	}
}

// TestGateCheckpointRestore: a gated cluster snapshotted mid-round —
// deferred admissions pending, bucket levels mid-drain, the staleness
// cache live — restores and continues identically to the uninterrupted
// run, for every algorithm.
func TestGateCheckpointRestore(t *testing.T) {
	orgs, jobs := gateWorkload()
	for _, alg := range engine.Steppers() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			spec := &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 1, Period: 8, Burst: 1, MaxAttempts: 2, Staleness: 10}
			straight := gatedCluster(t, alg, orgs, 7, spec)
			streamFed(t, straight, jobs, 400)

			// Replay the same stream, but snapshot/restore at t=45 — an
			// instant with deferred admissions in flight.
			half := gatedCluster(t, alg, orgs, 7, spec)
			restoreAt := model.Time(45)
			var resumed *fed.Federation
			run := func() *fed.Federation {
				if resumed != nil {
					return resumed
				}
				return half
			}
			feedStreaming(t, func(b []model.Job) error {
				for _, j := range b {
					if _, err := run().Submit(0, j.Org, j.Size, j.Release); err != nil {
						return err
					}
				}
				return nil
			}, func(tm model.Time) error {
				if _, err := run().Step(tm); err != nil || tm != restoreAt {
					return err
				}
				if deferred(half.AdmissionStats()) == 0 {
					t.Fatal("checkpoint instant carries no deferred admissions — the test is not exercising mid-round state")
				}
				snap, err := half.Snapshot()
				if err != nil {
					return err
				}
				specs := []fed.ClusterSpec{{Name: "cluster0", Alg: alg, Machines: []int{1, 0}}}
				resumed, err = fed.Restore([]string{"A", "B"}, specs, fed.LocalOnly{}, snap)
				return err
			}, jobs, 400)
			if resumed == nil {
				t.Fatal("test bug: restore point never reached")
			}
			engine.AssertSameRun(t, "resumed vs straight", member(straight).Result(), member(resumed).Result(), member(straight).Decisions(), member(resumed).Decisions())
			if fmt.Sprintf("%+v", straight.AdmissionStats()) != fmt.Sprintf("%+v", resumed.AdmissionStats()) {
				t.Fatalf("admission stats diverged:\n%+v\n%+v", straight.AdmissionStats(), resumed.AdmissionStats())
			}
		})
	}
}

// TestGateSnapshotEnvelopes: an engine writes one layout, a bare core
// checkpoint, which restores to an ungated engine that re-captures it
// byte for byte. The engine takes no admission spec, and it refuses
// the retired envelope gated engines once wrapped around their
// checkpoints, which carries no version of its own, and a truncated
// checkpoint.
func TestGateSnapshotEnvelopes(t *testing.T) {
	orgs, jobs := gateWorkload()
	alg := engine.Steppers()[0]
	empty, err := model.NewInstance(orgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(alg, empty, 1)
	if err := e.SetAdmission(nil); err != nil {
		t.Fatal(err)
	}
	if err := e.SetAdmission(&ctrl.PolicySpec{Policy: "always"}); err == nil {
		t.Fatal("an engine accepted an admission spec")
	}
	if _, err := e.Feed(jobs[:6]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Step(5); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	back, err := engine.Restore(alg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := back.Snapshot(); err != nil || !bytes.Equal(snap, again) {
		t.Fatalf("restored engine re-captures differently (err %v):\n%s\n%s", err, snap, again)
	}
	if _, err := engine.Restore(alg, snap[:len(snap)/2]); err == nil {
		t.Error("Restore accepted a truncated checkpoint")
	}
	envelope := []byte(`{"gate_version":1,"admission":{"policy":"always"},"ctrl":{},"core":` + string(snap) + `}`)
	if _, err := engine.Restore(alg, envelope); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("checkpoint version 0, want %d", core.CheckpointVersion)) {
		t.Errorf("Restore answered a gate envelope with %v, want a refusal naming version %d", err, core.CheckpointVersion)
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
