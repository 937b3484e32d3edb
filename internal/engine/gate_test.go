package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/model"
)

// feedStreaming drives an engine through the standard online pattern:
// jobs fed just before their release instants, interleaved with
// 3-tick Steps, then a final Step to the horizon.
func feedStreaming(t *testing.T, e *Engine, jobs []model.Job, horizon model.Time) {
	t.Helper()
	next := 0
	for tm := model.Time(0); tm < horizon; tm += 3 {
		var arrivals []model.Job
		for next < len(jobs) && jobs[next].Release <= tm {
			arrivals = append(arrivals, jobs[next])
			next++
		}
		if _, err := e.Feed(arrivals); err != nil {
			t.Fatalf("feed at %d: %v", tm, err)
		}
		if _, err := e.Step(tm); err != nil {
			t.Fatalf("step to %d: %v", tm, err)
		}
	}
	if next < len(jobs) {
		t.Fatalf("test bug: %d jobs never fed", len(jobs)-next)
	}
	if _, err := e.Step(horizon); err != nil {
		t.Fatal(err)
	}
}

// TestGateDifferential is the single-cluster half of the acceptance
// differential: an engine gated by AlwaysAdmit at staleness 0 produces
// a byte-identical run — same decision trace, ψ, bitwise φ — to the
// ungated engine, for every algorithm.
func TestGateDifferential(t *testing.T) {
	for _, alg := range steppers() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				r := rand.New(rand.NewSource(900 + seed))
				inst := testInstance(r, 2+r.Intn(4))
				horizon := inst.Horizon() + 2

				empty, err := model.NewInstance(inst.Orgs, nil)
				if err != nil {
					t.Fatal(err)
				}
				plain := New(alg, empty.Clone(), seed)
				feedStreaming(t, plain, inst.Jobs, horizon)

				gated := New(alg, empty.Clone(), seed)
				if err := gated.SetAdmission(&ctrl.PolicySpec{Policy: "always"}); err != nil {
					t.Fatal(err)
				}
				feedStreaming(t, gated, inst.Jobs, horizon)

				assertSameRun(t, "gated vs direct", plain.Result(), gated.Result(), plain.Decisions(), gated.Decisions())
				st := gated.AdmissionStats()
				if st.TotalRejected() != 0 || st.TotalDeferred() != 0 {
					t.Fatalf("always-admit rejected %d / deferred %d", st.TotalRejected(), st.TotalDeferred())
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
// engine sheds load — the run completes with substantial rejects and
// the per-organization conservation law intact.
func TestGateTokenBucketOverload(t *testing.T) {
	orgs, jobs := gateWorkload()
	empty, err := model.NewInstance(orgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := New(steppers()[0], empty, 1)
	// ~1 size-4 job per 8 ticks: half the offered rate per org pair.
	if err := e.SetAdmission(&ctrl.PolicySpec{Policy: "tokenbucket", Rate: 1, Period: 8, Burst: 1, MaxAttempts: 2}); err != nil {
		t.Fatal(err)
	}
	feedStreaming(t, e, jobs, 400)
	st := e.AdmissionStats()
	if err := st.CheckConserved(); err != nil {
		t.Fatal(err)
	}
	if st.TotalReleased() != 40 || st.TotalDeferred() != 0 {
		t.Fatalf("released %d (deferred %d) after a full drain, fed 40", st.TotalReleased(), st.TotalDeferred())
	}
	if st.TotalRejected() == 0 || st.TotalAdmitted() == 0 {
		t.Fatalf("overload shed nothing or everything: %d admitted, %d rejected", st.TotalAdmitted(), st.TotalRejected())
	}
	if got := int64(len(e.Instance().Jobs)); got != st.TotalAdmitted() {
		t.Fatalf("%d jobs reached the schedule, %d admitted", got, st.TotalAdmitted())
	}
}

// TestGateBackpressureStaleness: queue-depth admission acting on a
// bounded-staleness load view stays deterministic and conserves; the
// stale view changes decisions relative to the fresh one.
func TestGateBackpressureStaleness(t *testing.T) {
	run := func(staleness model.Time) *Engine {
		orgs, jobs := gateWorkload()
		empty, err := model.NewInstance(orgs, nil)
		if err != nil {
			t.Fatal(err)
		}
		e := New(steppers()[0], empty, 1)
		spec := &ctrl.PolicySpec{Policy: "backpressure", MaxWaiting: 2, RetryAfter: 3, MaxAttempts: 4, Staleness: staleness}
		if err := e.SetAdmission(spec); err != nil {
			t.Fatal(err)
		}
		feedStreaming(t, e, jobs, 400)
		if err := e.AdmissionStats().CheckConserved(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := run(20), run(20)
	if fmt.Sprintf("%+v", a.AdmissionStats()) != fmt.Sprintf("%+v", b.AdmissionStats()) {
		t.Fatal("two identically configured stale-view runs diverged")
	}
	fresh := run(0)
	if fmt.Sprintf("%+v", fresh.AdmissionStats()) == fmt.Sprintf("%+v", a.AdmissionStats()) {
		t.Fatal("a 20-tick-stale load view admitted identically to a fresh one — the staleness knob is inert at the gate")
	}
	if fresh.AdmissionStats().TotalDeferred() != 0 || a.AdmissionStats().TotalDeferred() != 0 {
		t.Fatal("jobs left deferred after a full drain")
	}
}

// TestGateCheckpointRestore: a gated engine snapshotted mid-round —
// deferred admissions pending, bucket levels mid-drain, the staleness
// cache live — restores through the envelope and continues identically
// to the uninterrupted run, for every algorithm.
func TestGateCheckpointRestore(t *testing.T) {
	orgs, jobs := gateWorkload()
	for _, alg := range steppers() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			spec := &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 1, Period: 8, Burst: 1, MaxAttempts: 2, Staleness: 10}
			build := func() *Engine {
				empty, err := model.NewInstance(orgs, nil)
				if err != nil {
					t.Fatal(err)
				}
				e := New(alg, empty, 7)
				if err := e.SetAdmission(spec); err != nil {
					t.Fatal(err)
				}
				return e
			}
			straight := build()
			feedStreaming(t, straight, jobs, 400)

			// Replay the same stream, but snapshot/restore at t=45 — an
			// instant with control events in flight.
			half := build()
			next := 0
			restoreAt := model.Time(45)
			var resumed *Engine
			for tm := model.Time(0); tm < 400; tm += 3 {
				e := half
				if resumed != nil {
					e = resumed
				}
				var arrivals []model.Job
				for next < len(jobs) && jobs[next].Release <= tm {
					arrivals = append(arrivals, jobs[next])
					next++
				}
				if _, err := e.Feed(arrivals); err != nil {
					t.Fatal(err)
				}
				if _, err := e.Step(tm); err != nil {
					t.Fatal(err)
				}
				if tm == restoreAt {
					if _, queued := e.plane.NextEventTime(); !queued {
						t.Fatal("checkpoint instant carries no pending control events — the test is not exercising mid-round state")
					}
					snap, err := e.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					resumed, err = Restore(alg, snap)
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			if resumed == nil {
				t.Fatal("test bug: restore point never reached")
			}
			if _, err := resumed.Step(400); err != nil {
				t.Fatal(err)
			}
			assertSameRun(t, "resumed vs straight", straight.Result(), resumed.Result(), straight.Decisions(), resumed.Decisions())
			if fmt.Sprintf("%+v", straight.AdmissionStats()) != fmt.Sprintf("%+v", resumed.AdmissionStats()) {
				t.Fatalf("admission stats diverged:\n%+v\n%+v", straight.AdmissionStats(), resumed.AdmissionStats())
			}
		})
	}
}

// TestGateSnapshotEnvelopes: either snapshot layout restores to the
// engine that wrote it — a bare checkpoint to an ungated engine, a gate
// envelope to a gated one with the same spec — and re-captures byte for
// byte; a truncated or unknown-version envelope fails.
func TestGateSnapshotEnvelopes(t *testing.T) {
	orgs, jobs := gateWorkload()
	alg := steppers()[0]
	empty, err := model.NewInstance(orgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 1, Period: 8, Burst: 1, MaxAttempts: 2, Staleness: 10}
	var gatedSnap []byte
	for _, admission := range []*ctrl.PolicySpec{nil, spec} {
		e := New(alg, empty.Clone(), 1)
		if err := e.SetAdmission(admission); err != nil {
			t.Fatal(err)
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
		back, err := Restore(alg, snap)
		if err != nil {
			t.Fatalf("admission %+v: %v", admission, err)
		}
		switch got := back.Admission(); {
		case admission == nil && got != nil:
			t.Fatalf("a bare checkpoint restored gated: %+v", got)
		case admission != nil && (got == nil || *got != *admission):
			t.Fatalf("a gate envelope restored with admission %+v, want %+v", got, admission)
		}
		again, err := back.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, again) {
			t.Fatalf("admission %+v: restored engine re-captures differently:\n%s\n%s", admission, snap, again)
		}
		gatedSnap = snap
	}

	var env map[string]json.RawMessage
	if err := json.Unmarshal(gatedSnap, &env); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(map[string]json.RawMessage){
		"unknown version": func(m map[string]json.RawMessage) { m["gate_version"] = json.RawMessage("2") },
		"no ctrl state":   func(m map[string]json.RawMessage) { delete(m, "ctrl") },
		"no admission":    func(m map[string]json.RawMessage) { delete(m, "admission") },
		"no core":         func(m map[string]json.RawMessage) { delete(m, "core") },
		"no version":      func(m map[string]json.RawMessage) { delete(m, "gate_version") },
	} {
		bad := make(map[string]json.RawMessage, len(env))
		for k, v := range env {
			bad[k] = v
		}
		mutate(bad)
		data, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(alg, data); err == nil {
			t.Errorf("Restore accepted an envelope with %s", name)
		}
	}
	if _, err := Restore(alg, gatedSnap[:len(gatedSnap)/2]); err == nil {
		t.Error("Restore accepted a truncated envelope")
	}
}
