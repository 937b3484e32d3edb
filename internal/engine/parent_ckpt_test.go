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

// testdata/ckpt_parent_gated.json was written by the commit before
// Restore and RestoreGated became one, with version-1 cluster states;
// ckpt_v2_gated.json and ckpt_v3_gated.json are the same run at the same
// instant from the first version-2 and version-3 writers — all three
// around a version-1 control block — ckpt_ctrl2_gated.json from the
// first writer of control-block version 2, and ckpt_core4_gated.json
// and ckpt_core5_gated.json from the first writers of core versions 4
// and 5. Each must restore, snapshot to what a fresh run stepped to the
// same instant does, and finish exactly as an uninterrupted run. The
// core5 envelope is that fresh snapshot byte for byte; the older ones
// cannot be (five cluster fields of version 1, the job IDs and start
// organizations of the first two, the event classes, push numbers and
// counters of the first three, the running entries' ends and fold marks
// and the decision schedule's running entries and accounts of all four,
// and the hypothetical schedules' queues, pending releases and
// machine-owner accounts of all five are no longer written).
func TestParentGatedCheckpointRestores(t *testing.T) {
	for _, name := range []string{"parent", "v2", "v3", "ctrl2", "core4", "core5"} {
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", "ckpt_"+name+"_gated.json"))
			if err != nil {
				t.Fatal(err)
			}
			raw = bytes.TrimSpace(raw)
			if v1 := bytes.Contains(raw, []byte("flushed_at")); v1 != (name == "parent") {
				t.Fatalf("the %s envelope holds version-1 cluster states: %v", name, v1)
			}
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
			want, err := straight.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if old := bytes.Contains(raw, []byte(`"ID":`)); old != (name == "parent" || name == "v2") {
				t.Fatalf("the %s envelope carries job IDs: %v", name, old)
			}
			if old := bytes.Contains(raw, []byte(`"next_id":`)); old != (name != "ctrl2" && name != "core4" && name != "core5") {
				t.Fatalf("the %s envelope carries a version-1 control block: %v", name, old)
			}
			if old := bytes.Contains(raw, []byte(`"acc_from":`)); old != (name != "core4" && name != "core5") {
				t.Fatalf("the %s envelope carries running entries' fold marks: %v", name, old)
			}
			if old := bytes.Contains(raw, []byte(`"own_acct":`)); old != (name != "core5") {
				t.Fatalf("the %s envelope carries machine-owner accounts: %v", name, old)
			}
			if name == "core5" && !bytes.Equal(want, raw) {
				t.Errorf("a fresh run's snapshot at t=%d differs from the fixture's bytes (%d B, fixture %d B)", parentCkptAt, len(want), len(raw))
			}
			if got, err := restored.Snapshot(); err != nil || !bytes.Equal(got, want) {
				t.Errorf("the restored run's snapshot differs from a fresh run's at t=%d (err %v)", parentCkptAt, err)
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
		})
	}
}
