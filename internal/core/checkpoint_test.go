package core

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/model"
	"repro/internal/sim"
)

// ckptFamilies maps the committed parent-commit checkpoints
// (testdata/ckpt_parent_<key>.json) to the algorithm configuration that
// captured them. exact marks the families whose captures must stay
// byte-identical across the schedule-set refactor; RAND and NBS no
// longer flush untouched hypothetical schedules at every instant, so
// the accrual bookkeeping inside their cluster states (flushed_at,
// acc_from, the flushed/unflushed account split) may differ while every
// derived value is equal. The last two were captured at e0df78c by the
// per-instant worker pool (RefOptions{Parallel: true, Workers: 2}, 5
// organizations; RandOptions{Workers: 2}, 6 organizations; t = 7,
// touched sets up to 28 and 47 slots), which flushed accrual on the
// worker: the same bookkeeping-only difference, now against a run that
// never fans out.
var ckptFamilies = []struct {
	key   string
	alg   StepperAlgorithm
	exact bool
}{
	{"ref", RefAlgorithm{}, true},
	{"rand", RandAlgorithm{Samples: 12}, false},
	{"nbs", NbsAlgorithm{}, false},
	{"roundrobin", FromPolicy("RoundRobin", func() sim.Policy { return baseline.NewRoundRobin() }), true},
	{"ref_parallel", RefAlgorithm{}, false},
	{"rand_workers", RandAlgorithm{Samples: 20}, false},
}

func loadParentCheckpoint(t *testing.T, key string) ([]byte, *Checkpoint) {
	t.Helper()
	data, err := os.ReadFile("testdata/ckpt_parent_" + key + ".json")
	if err != nil {
		t.Fatal(err)
	}
	cp := new(Checkpoint)
	if err := json.Unmarshal(data, cp); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSpace(data), cp
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

// The committed checkpoints were captured mid-run (half the jobs
// started) by the commit before the change that could have broken them,
// one per stepper family. Each must restore under the current code and run to
// the horizon with starts, ψ and φ equal to an uninterrupted run; the
// exact families must also re-capture — straight after restore, and
// from a fresh run stepped to the same instant — to the parent's bytes.
func TestParentCheckpointsRestore(t *testing.T) {
	for _, fam := range ckptFamilies {
		t.Run(fam.key, func(t *testing.T) {
			raw, cp := loadParentCheckpoint(t, fam.key)
			restored, err := fam.alg.RestoreStepper(cp)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := cp.RebuildInstance()
			if err != nil {
				t.Fatal(err)
			}
			fresh := fam.alg.NewStepper(inst, cp.Seed)
			for fresh.StepNext(cp.Now) {
			}
			fresh.FinishAt(cp.Now)
			if fam.exact {
				if got := captureJSON(t, restored, cp.Now); !bytes.Equal(got, raw) {
					t.Errorf("re-capture after restore differs from the parent's bytes")
				}
				if got := captureJSON(t, fresh, cp.Now); !bytes.Equal(got, raw) {
					t.Errorf("capture of a fresh run at t=%d differs from the parent's bytes", cp.Now)
				}
			}
			horizon := inst.Horizon() + 2
			want := runStepper(fresh, horizon)
			got := runStepper(restored, horizon)
			if len(got.Starts) != len(inst.Jobs) {
				t.Fatalf("restored run started %d of %d jobs", len(got.Starts), len(inst.Jobs))
			}
			assertSameResult(t, fam.key+" restored vs uninterrupted", want, got)
			for u := range want.Phi {
				if math.Float64bits(want.Phi[u]) != math.Float64bits(got.Phi[u]) {
					t.Fatalf("φ[%d] differs bitwise: %v vs %v", u, want.Phi[u], got.Phi[u])
				}
			}
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
