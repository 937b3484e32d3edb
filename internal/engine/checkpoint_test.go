package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
)

// The checkpoint acceptance criterion: for every algorithm, stop at a
// mid-run instant, serialize the engine, restore it (through JSON, as a
// cold process would), finish — schedules, ψ and φ must be byte-
// identical to the uninterrupted run.
func TestCheckpointRestoreDeterminism(t *testing.T) {
	for _, alg := range steppers() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				r := rand.New(rand.NewSource(900 + seed))
				k := 2 + r.Intn(4)
				inst := testInstance(r, k)
				horizon := inst.Horizon() + 2
				mid := horizon / 2

				uninterrupted := New(alg, clone(inst), seed)
				if _, err := uninterrupted.Step(horizon); err != nil {
					t.Fatal(err)
				}

				paused := New(alg, clone(inst), seed)
				if _, err := paused.Step(mid); err != nil {
					t.Fatal(err)
				}
				snap, err := paused.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := Restore(alg, snap)
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				if resumed.Now() != mid {
					t.Fatalf("restored clock %d, want %d", resumed.Now(), mid)
				}
				if _, err := resumed.Step(horizon); err != nil {
					t.Fatal(err)
				}
				assertSameRun(t, "resumed vs uninterrupted",
					uninterrupted.Result(), resumed.Result(),
					uninterrupted.Decisions(), resumed.Decisions())
			}
		})
	}
}

// A snapshot must also survive online arrivals on both sides of the
// checkpoint: feed some jobs, checkpoint, feed more into the restored
// engine — and the whole run must match an unpaused engine given the
// same feed schedule.
func TestCheckpointWithOnlineArrivals(t *testing.T) {
	for _, alg := range steppers() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			r := rand.New(rand.NewSource(1300))
			k := 3
			inst := testInstance(r, k)
			horizon := inst.Horizon() + 2
			mid := horizon / 2
			empty, err := model.NewInstance(inst.Orgs, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Feed plan: everything released before mid arrives at t=0,
			// the rest arrives right after the checkpoint at mid.
			var early, late []model.Job
			for _, j := range inst.Jobs {
				if j.Release < mid {
					early = append(early, j)
				} else {
					late = append(late, j)
				}
			}

			run := func(pause bool) *Engine {
				e := New(alg, clone(empty), 5)
				if _, err := e.Feed(early); err != nil {
					t.Fatal(err)
				}
				if _, err := e.Step(mid); err != nil {
					t.Fatal(err)
				}
				if pause {
					snap, err := e.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if e, err = Restore(alg, snap); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := e.Feed(late); err != nil {
					t.Fatal(err)
				}
				if _, err := e.Step(horizon); err != nil {
					t.Fatal(err)
				}
				return e
			}
			plain, paused := run(false), run(true)
			assertSameRun(t, "paused vs plain",
				plain.Result(), paused.Result(), plain.Decisions(), paused.Decisions())
		})
	}
}

// Snapshots are versioned JSON and refuse to restore under a different
// algorithm configuration.
func TestSnapshotValidation(t *testing.T) {
	inst := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 1}},
		[]model.Job{{Org: 0, Release: 0, Size: 3}},
	)
	e := New(core.RefAlgorithm{}, inst, 0)
	if _, err := e.Step(1); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var cp core.Checkpoint
	if err := json.Unmarshal(snap, &cp); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if cp.Version != core.CheckpointVersion || cp.Algorithm != "REF" {
		t.Fatalf("snapshot header: %+v", cp)
	}
	if _, err := Restore(core.RandAlgorithm{Samples: 3}, snap); err == nil {
		t.Fatal("REF snapshot restored as RAND")
	}
	// Restore reads the current layout alone: a retired version, one
	// not yet written and none at all are refused by name.
	for _, version := range []int{0, 1, core.CheckpointVersion - 1, core.CheckpointVersion + 1, 99} {
		cp.Version = version
		bad, _ := json.Marshal(cp)
		if _, err := Restore(core.RefAlgorithm{}, bad); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("checkpoint version %d, want %d", version, core.CheckpointVersion)) {
			t.Fatalf("checkpoint version %d: restore answered %v", version, err)
		}
	}
	// So is a committed checkpoint of the current layout with its version
	// edited down by one; unedited, it restores.
	fixture, err := os.ReadFile("../core/testdata/ckpt_v7_ref.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(core.RefAlgorithm{}, fixture); err != nil {
		t.Fatalf("the committed checkpoint is refused: %v", err)
	}
	retired := bytes.Replace(fixture, []byte(fmt.Sprintf(`{"version":%d,`, core.CheckpointVersion)), []byte(fmt.Sprintf(`{"version":%d,`, core.CheckpointVersion-1)), 1)
	if _, err := Restore(core.RefAlgorithm{}, retired); bytes.Equal(retired, fixture) || err == nil || !strings.Contains(err.Error(), fmt.Sprintf("want %d", core.CheckpointVersion)) {
		t.Fatalf("the committed checkpoint as version %d: restore answered %v", core.CheckpointVersion-1, err)
	}
}

// Crafted or corrupt checkpoints must be rejected with an error, never
// accepted into a state that panics on the next step — /v1/restore is
// an untrusted input surface.
func TestRestoreRejectsCorruptCheckpoints(t *testing.T) {
	inst := model.MustNewInstance(
		[]model.Org{{Name: "A", Machines: 2}},
		[]model.Job{{Org: 0, Release: 0, Size: 4}},
	)
	e := New(core.RefAlgorithm{}, inst, 0)
	if _, err := e.Step(1); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(cp *core.Checkpoint)) []byte {
		var cp core.Checkpoint
		if err := json.Unmarshal(snap, &cp); err != nil {
			t.Fatal(err)
		}
		mutate(&cp)
		out, _ := json.Marshal(&cp)
		return out
	}
	cases := map[string][]byte{
		"running job on an unknown machine": corrupt(func(cp *core.Checkpoint) {
			cp.Clusters[0].Starts[0].Machine = 5
		}),
		"speeds shorter than machines": corrupt(func(cp *core.Checkpoint) {
			cp.Orgs[0].Speeds = []int{2}
		}),
		"zero machines total": corrupt(func(cp *core.Checkpoint) {
			cp.Orgs[0].Machines = 0
		}),
		"job for unknown org": corrupt(func(cp *core.Checkpoint) {
			cp.Jobs[0].Org = 7
		}),
		// FuzzSessionRestore's findings: each of these restored, and
		// panicked in sim.New or at the next step.
		"clock behind its schedules": corrupt(func(cp *core.Checkpoint) {
			cp.Now = -5
		}),
		// (This one restored until the fuzzer demanded service: every
		// later step was "before engine time 12336".)
		"clock past an event its schedules still hold": corrupt(func(cp *core.Checkpoint) {
			cp.Now = 12336
		}),
		"decision after the clock": corrupt(func(cp *core.Checkpoint) {
			cp.Clusters[0].Starts[0].At = 3
		}),
		// A release the clock has passed was served late: the cluster
		// answered it as due now.
		"pending release before the clock": corrupt(func(cp *core.Checkpoint) {
			cp.Jobs = append(cp.Jobs, model.Job{Org: 0, Release: 0, Size: 1})
			cp.Clusters[0].ReleaseOrder = []int{1}
		}),
		"decision for an unknown job": corrupt(func(cp *core.Checkpoint) {
			cp.Clusters[0].Starts[0].Job = 999999
		}),
		"a machine pool past any allocation": corrupt(func(cp *core.Checkpoint) {
			cp.Orgs[0].Machines = 1 << 52
		}),
	}
	for name, data := range cases {
		if _, err := Restore(core.RefAlgorithm{}, data); err == nil {
			t.Errorf("%s: corrupt checkpoint accepted", name)
		}
	}
}
