package engine_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/daemon"
	"repro/internal/model"
)

// parentCkptAt is where the committed envelopes were taken: six
// deferred admissions waiting on their retries, the cached load view 13
// ticks into its 20-tick period.
const parentCkptAt = model.Time(33)

// parentCkptSession is the session configuration of the run behind
// testdata/ckpt_*_gated.json — a saturated REF cluster, organizations A
// (one machine) and B (none), behind a backpressure gate that reads a
// load view up to 20 ticks old — with the organizations under a single
// session's names.
func parentCkptSession(t *testing.T) *daemon.Session {
	t.Helper()
	s, err := daemon.NewManager().Create("g", daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "ref", Orgs: 2, Machines: 1, Seed: 7,
		Admission: &ctrl.PolicySpec{Policy: "backpressure", MaxWaiting: 2, RetryAfter: 3, MaxAttempts: 4, Staleness: 20}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// placements is a decision log without its job names: the conversion
// numbers the jobs admitted before it anew.
func placements(s *daemon.Session) string {
	_, decs := s.Decisions(0)
	var b bytes.Buffer
	for _, d := range decs {
		fmt.Fprintf(&b, "%d %d %d %d\n", d.Org, d.Cluster, d.Machine, d.At)
	}
	return b.String()
}

// testdata/ckpt_parent_gated.json was written by the commit before
// Restore and RestoreGated became one, with version-1 cluster states;
// ckpt_v2_gated.json and ckpt_v3_gated.json are the same run at the same
// instant from the first version-2 and version-3 writers — all three
// around a version-1 control block — ckpt_ctrl2_gated.json from the
// first writer of control-block version 2, and ckpt_core4_gated.json
// and ckpt_core5_gated.json from the first writers of core versions 4
// and 5. All six are envelopes of the engine's own admission gate,
// which is gone: a gated single session restores them through the
// daemon's conversion to a one-member federation (the only edit is the
// organizations' names, A and B, to a session's). Each must restore
// with its deferred admissions and cached view, re-capture to a
// document that restores to the same bytes, and run on to t = 400
// exactly as a fresh session handed the same jobs does — in placements,
// ψ, φ and admission counters.
func TestParentGatedCheckpointRestores(t *testing.T) {
	fresh := parentCkptSession(t)
	var jobs []daemon.JobSubmission
	for i := 0; i < 40; i++ {
		release := model.Time(2 * i)
		jobs = append(jobs, daemon.JobSubmission{Org: i % 2, Size: 4, Release: &release})
	}
	if _, err := fresh.Submit(jobs); err != nil {
		t.Fatal(err)
	}
	for _, until := range []model.Time{parentCkptAt, 400} {
		if _, _, err := fresh.Advance(&until); err != nil {
			t.Fatal(err)
		}
	}
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
			if old := bytes.Contains(raw, []byte(`"next_id":`)); old != (name != "ctrl2" && name != "core4" && name != "core5") {
				t.Fatalf("the %s envelope carries a version-1 control block: %v", name, old)
			}
			doc := bytes.ReplaceAll(bytes.ReplaceAll(raw, []byte(`"Name":"A"`), []byte(`"Name":"org0"`)), []byte(`"Name":"B"`), []byte(`"Name":"org1"`))
			restored := parentCkptSession(t)
			if err := restored.Restore(doc); err != nil {
				t.Fatal(err)
			}
			st := restored.State()
			if st.Now != parentCkptAt || st.Admission == nil || deferred(st.Admission.Stats) == 0 {
				t.Fatalf("the envelope restored without a gate holding deferred admissions at t=%d: %+v", parentCkptAt, st)
			}
			converted, err := restored.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			var cp struct {
				Pending []json.RawMessage `json:"pending"`
				ExAt    *model.Time       `json:"ex_at"`
			}
			if err := json.Unmarshal(converted, &cp); err != nil {
				t.Fatal(err)
			}
			if len(cp.Pending) == 0 || cp.ExAt == nil || *cp.ExAt != 20 {
				t.Fatalf("the conversion kept %d future arrivals and the cached view at %v", len(cp.Pending), cp.ExAt)
			}
			again := parentCkptSession(t)
			if err := again.Restore(converted); err != nil {
				t.Fatal(err)
			}
			if got, err := again.Checkpoint(); err != nil || !bytes.Equal(got, converted) {
				t.Errorf("the converted session's checkpoint is not a fixed point of restore (err %v)", err)
			}
			until := model.Time(400)
			if _, _, err := restored.Advance(&until); err != nil {
				t.Fatal(err)
			}
			if a, b := placements(fresh), placements(restored); a != b {
				t.Fatalf("restored run placed jobs differently:\n%s\nvs\n%s", a, b)
			}
			a, b := fresh.State(), restored.State()
			if fmt.Sprint(a.Psi, a.Phi, a.Value, a.Jobs, a.Decisions) != fmt.Sprint(b.Psi, b.Phi, b.Value, b.Jobs, b.Decisions) {
				t.Fatalf("restored run diverged: %+v vs %+v", a, b)
			}
			if x, y := fmt.Sprintf("%+v", a.Admission.Stats), fmt.Sprintf("%+v", b.Admission.Stats); x != y {
				t.Fatalf("admission stats diverged:\n%s\n%s", x, y)
			}
		})
	}
}
