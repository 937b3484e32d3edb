package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/model"
)

// parentCkptEngine is the run behind testdata/ckpt_parent_gated.json: a
// saturated REF engine behind a backpressure gate that reads a load
// view up to 20 ticks old, every job fed up front.
func parentCkptEngine(t *testing.T) *Engine {
	t.Helper()
	orgs, jobs := gateWorkload()
	empty, err := model.NewInstance(orgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := New(core.RefAlgorithm{}, empty, 7)
	spec := &ctrl.PolicySpec{Policy: "backpressure", MaxWaiting: 2, RetryAfter: 3, MaxAttempts: 4, Staleness: 20}
	if err := e.SetAdmission(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Feed(jobs); err != nil {
		t.Fatal(err)
	}
	return e
}

// parentCkptAt is where the committed envelope was taken: six deferred
// admissions waiting on their retries, the cached load view 13 ticks
// into its 20-tick period.
const parentCkptAt = model.Time(33)

// The committed envelope was written by the commit before Restore and
// RestoreGated became one. It must restore, re-capture to the parent's
// bytes — as must a fresh run stepped to the same instant — and finish
// exactly as an uninterrupted run.
func TestParentGatedCheckpointRestores(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "ckpt_parent_gated.json"))
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.TrimSpace(raw)
	restored, err := Restore(core.RefAlgorithm{}, raw)
	if err != nil {
		t.Fatal(err)
	}
	if restored.plane == nil || restored.AdmissionStats().TotalDeferred() == 0 {
		t.Fatal("the envelope restored without a gate holding deferred admissions")
	}
	if _, ok := restored.gateProvider.Cached(); !ok {
		t.Fatal("the envelope restored without its cached load view")
	}
	straight := parentCkptEngine(t)
	if _, err := straight.Step(parentCkptAt); err != nil {
		t.Fatal(err)
	}
	for label, e := range map[string]*Engine{"restored": restored, "fresh": straight} {
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, raw) {
			t.Errorf("%s run's snapshot at t=%d differs from the parent's bytes", label, parentCkptAt)
		}
	}
	if _, err := straight.Step(400); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Step(400); err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "restored vs uninterrupted", straight.Result(), restored.Result(), straight.Decisions(), restored.Decisions())
	if a, b := fmt.Sprintf("%+v", straight.AdmissionStats()), fmt.Sprintf("%+v", restored.AdmissionStats()); a != b {
		t.Fatalf("admission stats diverged:\n%s\n%s", a, b)
	}
}
