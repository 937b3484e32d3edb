package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/model"
	"repro/internal/sim"
)

// ckptFamilies maps the committed checkpoints to the algorithm
// configuration that captured them: testdata/ckpt_parent_<key>.json,
// version 1, written by the commit before the schedule-set refactor
// (the last two at e0df78c by the per-instant worker pool —
// RefOptions{Parallel: true, Workers: 2}, 5 organizations;
// RandOptions{Workers: 2}, 6 organizations; t = 7, touched sets up to
// 28 and 47 slots), and for the v2 families testdata/ckpt_v2_<key>.json,
// ckpt_v3_<key>.json and ckpt_v4_<key>.json, the same run captured at
// the same instant by the first version-2, version-3 and version-4
// writers. decisionFirst marks the families that checkpoint the
// decision schedule first, not last.
var ckptFamilies = []struct {
	key           string
	alg           StepperAlgorithm
	v2            bool
	decisionFirst bool
}{
	{"ref", RefAlgorithm{}, true, false},
	{"rand", RandAlgorithm{Samples: 12}, true, true},
	{"nbs", NbsAlgorithm{}, true, false},
	{"roundrobin", FromPolicy("RoundRobin", func() sim.Policy { return baseline.NewRoundRobin() }), true, true},
	{"ref_parallel", RefAlgorithm{}, false, false},
	{"rand_workers", RandAlgorithm{Samples: 20}, false, true},
}

func loadCheckpoint(t *testing.T, name string) ([]byte, *Checkpoint) {
	t.Helper()
	data, err := os.ReadFile("testdata/ckpt_" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	cp := new(Checkpoint)
	if err := json.Unmarshal(data, cp); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSpace(data), cp
}

func loadParentCheckpoint(t *testing.T, key string) ([]byte, *Checkpoint) {
	t.Helper()
	return loadCheckpoint(t, "parent_"+key)
}

func captureJSON(t *testing.T, s Stepper, now model.Time) []byte {
	t.Helper()
	cp, err := s.Capture(now)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// assertResumesLikeFresh runs a restored stepper and a fresh one that
// stands at the same instant to the horizon: every job starts, and
// starts, ψ and φ are equal, φ bit for bit.
func assertResumesLikeFresh(t *testing.T, label string, inst *model.Instance, fresh, restored Stepper) {
	t.Helper()
	horizon := inst.Horizon() + 2
	want := runStepper(fresh, horizon)
	got := runStepper(restored, horizon)
	if len(got.Starts) != len(inst.Jobs) {
		t.Fatalf("%s: restored run started %d of %d jobs", label, len(got.Starts), len(inst.Jobs))
	}
	assertSameResult(t, label+" restored vs uninterrupted", want, got)
	for u := range want.Phi {
		if math.Float64bits(want.Phi[u]) != math.Float64bits(got.Phi[u]) {
			t.Fatalf("%s: φ[%d] differs bitwise: %v vs %v", label, u, want.Phi[u], got.Phi[u])
		}
	}
}

// freshAt rebuilds the checkpoint's instance and steps a new run of it
// to the checkpoint's instant.
func freshAt(t *testing.T, alg StepperAlgorithm, cp *Checkpoint) (*model.Instance, Stepper) {
	t.Helper()
	inst, err := cp.RebuildInstance()
	if err != nil {
		t.Fatal(err)
	}
	fresh := alg.NewStepper(inst, cp.Seed)
	for fresh.StepNext(cp.Now) {
	}
	fresh.FinishAt(cp.Now)
	return inst, fresh
}

// The committed checkpoints were captured mid-run (half the jobs
// started), one per stepper family and layout version. Each must
// restore under the current code, re-capture to what a fresh run
// stepped to the same instant captures, and run to the horizon with
// starts, ψ and φ equal to an uninterrupted run. A version-4 file is
// that fresh capture byte for byte; an older file cannot be (the
// writer omits five of a version-1 cluster's fields, every job's ID and
// every start's Org of version 2, and a running entry's end and fold
// mark and the decision schedule's running entries and accounts of
// version 3).
func TestParentCheckpointsRestore(t *testing.T) {
	for _, fam := range ckptFamilies {
		t.Run(fam.key, func(t *testing.T) {
			_, cp := loadParentCheckpoint(t, fam.key)
			if cp.Version != 1 {
				t.Fatalf("the parent fixture is version %d, want 1", cp.Version)
			}
			restored, err := fam.alg.RestoreStepper(cp)
			if err != nil {
				t.Fatal(err)
			}
			inst, fresh := freshAt(t, fam.alg, cp)
			if !bytes.Equal(captureJSON(t, restored, cp.Now), captureJSON(t, fresh, cp.Now)) {
				t.Errorf("re-capture after restore differs from the capture of a fresh run at t=%d", cp.Now)
			}
			assertResumesLikeFresh(t, fam.key, inst, fresh, restored)
		})
		if !fam.v2 {
			continue
		}
		for _, version := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("%s/v%d", fam.key, version), func(t *testing.T) {
				raw, cp := loadCheckpoint(t, fmt.Sprintf("v%d_%s", version, fam.key))
				if _, parent := loadParentCheckpoint(t, fam.key); cp.Version != version || cp.Now != parent.Now || len(cp.Jobs) != len(parent.Jobs) {
					t.Fatalf("the fixture (version %d, t=%d, %d jobs) is not the parent fixture's run at its instant in version %d", cp.Version, cp.Now, len(cp.Jobs), version)
				}
				if old := bytes.Contains(raw, []byte(`"ID":`)) && bytes.Contains(raw, []byte(`"Org":0,"Machine":`)); old != (version == 2) {
					t.Fatalf("the fixture carries job IDs and start organizations: %v", old)
				}
				if old := bytes.Contains(raw, []byte(`"end":`)) && bytes.Contains(raw, []byte(`"acc_from":`)); old != (version < 4) {
					t.Fatalf("the fixture carries running entries' ends and fold marks: %v", old)
				}
				restored, err := fam.alg.RestoreStepper(cp)
				if err != nil {
					t.Fatal(err)
				}
				inst, fresh := freshAt(t, fam.alg, cp)
				want := captureJSON(t, fresh, cp.Now)
				if version == CheckpointVersion && !bytes.Equal(want, raw) {
					t.Errorf("capture of a fresh run at t=%d differs from the fixture's bytes (%d B, fixture %d B)", cp.Now, len(want), len(raw))
				}
				if got := captureJSON(t, restored, cp.Now); !bytes.Equal(got, want) {
					t.Errorf("re-capture after restore differs from the capture of a fresh run at t=%d", cp.Now)
				}
				assertResumesLikeFresh(t, fam.key, inst, fresh, restored)
			})
		}
	}
}

// A version-1 document's free lists, per-organization running counts,
// total accounts, flush marks, hypothetical decision logs, job IDs and
// start organizations are not read: each parent fixture with all of them overwritten by garbage
// restores and finishes exactly as the uninterrupted run. (Before the
// fields stopped being read, a doctored total was restored as the
// coalition's value and the run diverged.)
func TestRestoreIgnoresDerivedFields(t *testing.T) {
	for _, fam := range ckptFamilies {
		t.Run(fam.key, func(t *testing.T) {
			raw, clean := loadParentCheckpoint(t, fam.key)
			garbage := map[string]string{
				"total":           `{"U":3465034,"S":-17}`,
				"running_per_org": "[9" + strings.Repeat(",9", len(clean.Orgs)-1) + "]",
				"free":            `[999,-4,0,0]`,
				"flushed_at":      `123456`,
			}
			var doc map[string]json.RawMessage
			var clusters []map[string]json.RawMessage
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(doc["clusters"], &clusters); err != nil {
				t.Fatal(err)
			}
			decision := len(clusters) - 1
			if fam.decisionFirst {
				decision = 0
			}
			for pos, c := range clusters {
				for key, junk := range garbage {
					if _, ok := c[key]; !ok {
						t.Fatalf("cluster %d of the fixture has no %q to overwrite", pos, key)
					}
					c[key] = json.RawMessage(junk)
				}
				if pos != decision {
					c["starts"] = json.RawMessage(`[{"Job":999999,"Org":7,"Machine":-1,"At":5},{"Job":0},{"Job":0}]`)
				}
			}
			// A job's ID is its position and a start's Org its job's.
			garble := func(list json.RawMessage, key, junk string) json.RawMessage {
				var rows []map[string]json.RawMessage
				if err := json.Unmarshal(list, &rows); err != nil || len(rows) == 0 || rows[0][key] == nil {
					t.Fatalf("the fixture has no %q to overwrite (err %v)", key, err)
				}
				for _, row := range rows {
					row[key] = json.RawMessage(junk)
				}
				out, err := json.Marshal(rows)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			doc["jobs"] = garble(doc["jobs"], "ID", "424242")
			clusters[decision]["starts"] = garble(clusters[decision]["starts"], "Org", "99")
			var err error
			if doc["clusters"], err = json.Marshal(clusters); err != nil {
				t.Fatal(err)
			}
			doctored, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			cp := new(Checkpoint)
			if err := json.Unmarshal(doctored, cp); err != nil {
				t.Fatal(err)
			}
			restored, err := fam.alg.RestoreStepper(cp)
			if err != nil {
				t.Fatal(err)
			}
			inst, fresh := freshAt(t, fam.alg, clean)
			assertResumesLikeFresh(t, fam.key, inst, fresh, restored)
		})
	}
}

// Restore fails closed on half-checkpoints: a family that captures an
// RNG stream position or a stateful policy's blob rejects a checkpoint
// lacking it, instead of silently restarting that state from the seed.
// Families that capture neither (REF, NBS) have nothing to strip and
// still restore.
func TestRestoreRejectsStrippedCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		key, strip, wantErr string
	}{
		{"ref", "both", ""},
		{"nbs", "both", ""},
		{"rand", "rng", "lacks the RNG stream position"},
		{"roundrobin", "rng", "lacks the RNG stream position"},
		{"roundrobin", "policy", "lacks the policy state"},
	} {
		t.Run(tc.key+"/"+tc.strip, func(t *testing.T) {
			var alg StepperAlgorithm
			for _, fam := range ckptFamilies {
				if fam.key == tc.key {
					alg = fam.alg
				}
			}
			_, cp := loadParentCheckpoint(t, tc.key)
			stripped := 0
			if tc.strip != "policy" {
				stripped += len(cp.RNG)
				cp.RNG = nil
			}
			if tc.strip != "rng" {
				stripped += len(cp.Policy)
				cp.Policy = nil
			}
			if (stripped > 0) != (tc.wantErr != "") {
				t.Fatalf("stripped %d bytes/words of state, but the row expects error %q", stripped, tc.wantErr)
			}
			_, err := alg.RestoreStepper(cp)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("restore failed: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatal("restore accepted a checkpoint without its " + tc.strip + " field")
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("restore error %q, want it to mention %q", err, tc.wantErr)
			}
		})
	}
}

// Restore rebuilds the shared queues from the decision schedule and
// holds every hypothetical schedule to its window of them: one that
// lost a queued job behind its head, or a pending one, to its
// withdrawn list — a document no run writes — is refused.
func TestRestoreHoldsHypotheticalsToTheirWindow(t *testing.T) {
	orgs := []model.Org{{Name: "A", Machines: 1}, {Name: "B", Machines: 1}, {Name: "C", Machines: 1}}
	var jobs []model.Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, model.Job{Org: i % 3, Release: 0, Size: model.Time(5 + i)})
	}
	for i := 0; i < 6; i++ {
		jobs = append(jobs, model.Job{Org: i % 3, Release: model.Time(50 + i), Size: 3})
	}
	in := model.MustNewInstance(orgs, jobs)
	s := RefAlgorithm{}.NewStepper(in, 1)
	for s.StepNext(10) {
	}
	s.FinishAt(10)
	clean := captureJSON(t, s, 10)
	restore := func(doctor func(*sim.ClusterState) bool) error {
		t.Helper()
		var cp Checkpoint
		if err := json.Unmarshal(clean, &cp); err != nil {
			t.Fatal(err)
		}
		doctored := false
		for i := range cp.Clusters[:len(cp.Clusters)-1] { // the grand coalition's is last
			if doctored = doctor(&cp.Clusters[i]); doctored {
				break
			}
		}
		if !doctored {
			t.Fatal("no hypothetical schedule to doctor")
		}
		_, err := RefAlgorithm{}.RestoreStepper(&cp)
		return err
	}
	if err := restore(func(*sim.ClusterState) bool { return true }); err != nil {
		t.Fatalf("the undoctored checkpoint is refused: %v", err)
	}
	for name, doctor := range map[string]func(*sim.ClusterState) bool{
		"a queued job behind the head withdrawn": func(st *sim.ClusterState) bool {
			for u, q := range st.Queues {
				if len(q) >= 2 {
					st.Queues[u], st.Withdrawn = q[:len(q)-1], append(st.Withdrawn, q[len(q)-1])
					return true
				}
			}
			return false
		},
		"a pending job withdrawn": func(st *sim.ClusterState) bool {
			if len(st.ReleaseOrder) == 0 {
				return false
			}
			st.ReleaseOrder, st.Withdrawn = st.ReleaseOrder[1:], append(st.Withdrawn, st.ReleaseOrder[0])
			return true
		},
	} {
		if err := restore(doctor); err == nil || !strings.Contains(err.Error(), "sim: restore") {
			t.Errorf("%s in a hypothetical schedule: restore error %v, want a refusal", name, err)
		}
	}
}
