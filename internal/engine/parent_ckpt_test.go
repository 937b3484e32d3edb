package engine_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/daemon"
	"repro/internal/model"
)

// parentCkptAt is where the run below is checkpointed: six deferred
// admissions waiting on their retries, the cached load view 13 ticks
// into its 20-tick period.
const parentCkptAt = model.Time(33)

// parentCkptSession is a gated single session of the run the engine's
// retired admission-gate envelopes held — a saturated REF cluster,
// organizations A (one machine) and B (none), behind a backpressure gate
// that reads a load view up to 20 ticks old — under a session's names.
func parentCkptSession(t *testing.T) *daemon.Session {
	t.Helper()
	s, err := daemon.NewManager().Create("g", daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "ref", Orgs: 2, Machines: 1, Seed: 7,
		Admission: &ctrl.PolicySpec{Policy: "backpressure", MaxWaiting: 2, RetryAfter: 3, MaxAttempts: 4, Staleness: 20}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestParentGatedCheckpointRestores: the run the engine's retired gate
// envelopes held, checkpointed in the current layout (a one-member
// federation) with its deferred admissions and mid-period cached view,
// restores to a session that re-captures the same bytes and runs on to
// t = 400 exactly as the uninterrupted session does — in decisions, ψ,
// φ and admission counters.
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
	until := parentCkptAt
	if _, _, err := fresh.Advance(&until); err != nil {
		t.Fatal(err)
	}
	ckpt, err := fresh.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var cp struct {
		Pending []json.RawMessage `json:"pending"`
		ExAt    *model.Time       `json:"ex_at"`
	}
	if err := json.Unmarshal(ckpt, &cp); err != nil {
		t.Fatal(err)
	}
	if st := fresh.State(); len(cp.Pending) == 0 || cp.ExAt == nil || *cp.ExAt != 20 || st.Admission == nil || deferred(st.Admission.Stats) == 0 {
		t.Fatalf("the checkpoint holds %d future arrivals, the cached view at %v and no deferred admission: %+v", len(cp.Pending), cp.ExAt, st)
	}
	restored := parentCkptSession(t)
	if err := restored.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	if got, err := restored.Checkpoint(); err != nil || !bytes.Equal(got, ckpt) {
		t.Fatalf("the restored session's checkpoint is not a fixed point of restore (err %v)", err)
	}
	until = 400
	for _, s := range []*daemon.Session{fresh, restored} {
		if _, _, err := s.Advance(&until); err != nil {
			t.Fatal(err)
		}
	}
	_, a := fresh.Decisions(0)
	_, b := restored.Decisions(0)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("restored run decided differently:\n%v\nvs\n%v", a, b)
	}
	x, y := fresh.State(), restored.State()
	if fmt.Sprint(x.Psi, x.Phi, x.Value, x.Jobs, x.Decisions) != fmt.Sprint(y.Psi, y.Phi, y.Value, y.Jobs, y.Decisions) {
		t.Fatalf("restored run diverged: %+v vs %+v", x, y)
	}
	if p, q := fmt.Sprintf("%+v", x.Admission.Stats), fmt.Sprintf("%+v", y.Admission.Stats); p != q {
		t.Fatalf("admission stats diverged:\n%s\n%s", p, q)
	}
}
