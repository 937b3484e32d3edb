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
	"repro/internal/utility"
)

// ckptFamilies maps the committed checkpoints, testdata/ckpt_v7_<key>.json,
// to the algorithm configuration that captured them: one run on related
// machines, stopped with half its jobs started, captured by the first
// writer of the current layout. decisionFirst marks the families that
// checkpoint the decision schedule first, not last.
var ckptFamilies = []struct {
	key           string
	alg           StepperAlgorithm
	decisionFirst bool
}{
	{"ref", RefAlgorithm{}, false},
	{"rand", RandAlgorithm{Samples: 12}, true},
	{"nbs", NbsAlgorithm{}, false},
	{"roundrobin", FromPolicy("RoundRobin", func() sim.Policy { return baseline.NewRoundRobin() }), true},
}

// loadFixture reads the committed checkpoint of a family.
func loadFixture(t *testing.T, key string) ([]byte, *Checkpoint) {
	t.Helper()
	data, err := os.ReadFile("testdata/ckpt_v7_" + key + ".json")
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

// Each committed checkpoint is the capture of a fresh run stepped to its
// instant, byte for byte; it restores, re-captures to the same bytes and
// runs to the horizon with starts, ψ and φ equal to an uninterrupted
// run. Restore reads the current layout alone (DESIGN.md §7.1): the
// same document under each retired version, 1 to 6, is refused with an
// error naming the version it reads.
func TestParentCheckpointsRestore(t *testing.T) {
	for _, fam := range ckptFamilies {
		t.Run(fam.key, func(t *testing.T) {
			raw, cp := loadFixture(t, fam.key)
			if cp.Version != CheckpointVersion {
				t.Fatalf("the fixture is version %d, want %d", cp.Version, CheckpointVersion)
			}
			for version := 1; version < CheckpointVersion; version++ {
				t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
					retired := *cp
					retired.Version = version
					_, err := fam.alg.RestoreStepper(&retired)
					if want := fmt.Sprintf("checkpoint version %d, want %d", version, CheckpointVersion); err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("restore answered %v, want an error mentioning %q", err, want)
					}
				})
			}
			t.Run(fmt.Sprintf("v%d", CheckpointVersion), func(t *testing.T) {
				restored, err := fam.alg.RestoreStepper(cp)
				if err != nil {
					t.Fatal(err)
				}
				inst, fresh := freshAt(t, fam.alg, cp)
				want := captureJSON(t, fresh, cp.Now)
				if !bytes.Equal(want, raw) {
					t.Errorf("capture of a fresh run at t=%d differs from the fixture's bytes (%d B, fixture %d B)", cp.Now, len(want), len(raw))
				}
				if got := captureJSON(t, restored, cp.Now); !bytes.Equal(got, want) {
					t.Errorf("re-capture after restore differs from the capture of a fresh run at t=%d", cp.Now)
				}
				assertResumesLikeFresh(t, fam.key, inst, fresh, restored)
			})
		})
	}
}

// What a retired layout wrote and the current one derives is not read
// where a document carries it: every cluster state's free list,
// per-organization running counts, total account and flush mark, every
// running entry's end and fold mark, every job's ID and every start's
// Org (versions 1 to 3), and, in the /v4 rows, a hypothetical
// schedule's machine-owner accounts (version 4). Each committed
// checkpoint with all of them overwritten by garbage restores and
// finishes exactly as the uninterrupted run. (Before the fields stopped
// being read, a doctored total was restored as the coalition's value
// and the run diverged.)
func TestRestoreIgnoresDerivedFields(t *testing.T) {
	for _, fam := range ckptFamilies {
		for _, v4 := range []bool{false, true} {
			if v4 && fam.key == "roundrobin" {
				continue // no hypothetical schedule
			}
			name := fam.key
			if v4 {
				name += "/v4"
			}
			t.Run(name, func(t *testing.T) {
				raw, clean := loadFixture(t, fam.key)
				garbage := map[string]string{
					"total":           `{"U":3465034,"S":-17}`,
					"running_per_org": "[9" + strings.Repeat(",9", len(clean.Orgs)-1) + "]",
					"free":            `[999,-4,0,0]`,
					"flushed_at":      `123456`,
				}
				if v4 {
					garbage = map[string]string{"own_acct": `[{"U":999,"S":-3},{"U":5,"S":5}]`}
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
				// garble sets key to junk in every row of a list.
				garble := func(list json.RawMessage, junk map[string]string) json.RawMessage {
					var rows []map[string]json.RawMessage
					if err := json.Unmarshal(list, &rows); err != nil {
						t.Fatal(err)
					}
					for _, row := range rows {
						for key, v := range junk {
							row[key] = json.RawMessage(v)
						}
					}
					out, err := json.Marshal(rows)
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
				for pos, c := range clusters {
					if v4 && pos == decision {
						continue
					}
					for key, junk := range garbage {
						c[key] = json.RawMessage(junk)
					}
					if running := c["running"]; !v4 && running != nil {
						c["running"] = garble(running, map[string]string{"end": "-4", "acc_from": "1"})
					}
				}
				if !v4 {
					doc["jobs"] = garble(doc["jobs"], map[string]string{"ID": "424242"})
					clusters[decision]["starts"] = garble(clusters[decision]["starts"], map[string]string{"Org": "99"})
				}
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
				if !bytes.Equal(captureJSON(t, restored, cp.Now), captureJSON(t, fresh, cp.Now)) {
					t.Errorf("re-capture after restore differs from the capture of a fresh run at t=%d", cp.Now)
				}
				assertResumesLikeFresh(t, fam.key, inst, fresh, restored)
			})
		}
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
			_, cp := loadFixture(t, tc.key)
			stripped := 0
			if tc.strip != "policy" {
				stripped += len(cp.RNG)
				cp.RNG = nil
			}
			if tc.strip != "rng" && cp.Policy != nil {
				stripped++
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

// A version-7 hypothetical schedule on machines of one speed that is its
// members' release-start schedule is written as its coalition, clock and
// finished-work offset, and restore expands it from the job list. A
// compact entry is outside input like the rest: restore refuses one that
// no capture writes — in a version-6 document (a retired layout), on
// related machines, for the decision schedule, next to running entries
// or waiting counts, one whose release-start jobs overrun its pool, or
// one whose offset leaves negative finished work — with an error, never
// a panic.
func TestRestoreRefusesHostileReleaseStartEntries(t *testing.T) {
	// A, with one machine, releases three long jobs at once and queues
	// them alone; B's and C's jobs have finished by 5 in every schedule.
	in := model.MustNewInstance([]model.Org{{Name: "A", Machines: 1}, {Name: "B", Machines: 1}, {Name: "C", Machines: 2}}, []model.Job{
		{Org: 0, Release: 0, Size: 10}, {Org: 0, Release: 0, Size: 10}, {Org: 0, Release: 0, Size: 10},
		{Org: 1, Release: 0, Size: 3}, {Org: 2, Release: 1, Size: 2},
	})
	const now = 5
	s := RefAlgorithm{}.NewStepper(in, 1)
	for s.StepNext(now) {
	}
	s.FinishAt(now)
	clean := captureJSON(t, s, now)
	// entry returns the state of coal's schedule in a fresh copy of the
	// clean document.
	entry := func(cp *Checkpoint, coal model.Coalition) *sim.ClusterState {
		for i := range cp.Clusters {
			if cp.Clusters[i].Coalition == coal {
				return &cp.Clusters[i]
			}
		}
		t.Fatalf("no schedule of %v", coal)
		return nil
	}
	a, b, grand := model.Coalition(1), model.Coalition(2), in.Grand()
	var doc Checkpoint
	if err := json.Unmarshal(clean, &doc); err != nil {
		t.Fatal(err)
	}
	if !entry(&doc, b).AtRelease || entry(&doc, a).AtRelease {
		t.Fatalf("B's schedule is not written as its release-start schedule, or A's is: %s", clean)
	}
	if _, err := (RefAlgorithm{}).RestoreStepper(&doc); err != nil {
		t.Fatalf("the clean document is refused: %v", err)
	}
	for _, tc := range []struct {
		name, wantErr string
		doctor        func(*Checkpoint)
	}{
		{"in a version-6 document", "checkpoint version 6, want 7", func(cp *Checkpoint) { cp.Version = 6 }},
		{"on related machines", "more than one speed", func(cp *Checkpoint) { cp.Orgs[2].Speeds = []int{1, 2} }},
		{"for the decision schedule", "decision schedule", func(cp *Checkpoint) {
			*entry(cp, grand) = sim.ClusterState{Coalition: grand, Now: now, AtRelease: true}
		}},
		{"next to running entries", "carries waiting counts or running entries", func(cp *Checkpoint) {
			entry(cp, b).Running = []sim.RunEntryState{{Job: 3, Machine: 0, Start: 0}}
		}},
		{"next to waiting counts", "carries waiting counts or running entries", func(cp *Checkpoint) { entry(cp, b).Waiting = []int{1} }},
		{"overrunning its pool", "runs 3 jobs at 5 on 1 machines", func(cp *Checkpoint) {
			*entry(cp, a) = sim.ClusterState{Coalition: a, Now: now, AtRelease: true}
		}},
		{"with negative finished work", "finished work {U:-", func(cp *Checkpoint) {
			entry(cp, b).OrgAcct = []utility.Account{{U: -4, S: 0}}
		}},
		{"with an offset per organization", "finished-work offsets for", func(cp *Checkpoint) {
			entry(cp, b).OrgAcct = make([]utility.Account, 3)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var cp Checkpoint
			if err := json.Unmarshal(clean, &cp); err != nil {
				t.Fatal(err)
			}
			tc.doctor(&cp)
			_, err := (RefAlgorithm{}).RestoreStepper(&cp)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("restore answered %v, want an error mentioning %q", err, tc.wantErr)
			}
		})
	}
}

// legacyState rewrites a hypothetical schedule's state of cp the way a
// version-4 writer wrote it: its window of the decision schedule's
// released jobs as queues, the members' pending releases, and an
// account for every organization.
func legacyState(cp *Checkpoint, st *sim.ClusterState) {
	decision := cp.Clusters[len(cp.Clusters)-1]
	released := make([][]int, len(cp.Orgs))
	for _, s := range decision.Starts {
		u := cp.Jobs[s.Job].Org
		released[u] = append(released[u], s.Job)
	}
	queues := &sim.QueueState{Queues: make([][]int, len(cp.Orgs))}
	for _, id := range decision.ReleaseOrder {
		if st.Coalition.Has(cp.Jobs[id].Org) {
			queues.ReleaseOrder = append(queues.ReleaseOrder, id)
		}
	}
	acct := make([]utility.Account, len(cp.Orgs))
	for i, u := range st.Coalition.Members() {
		list := append(released[u], decision.Queues[u]...)
		queues.Queues[u], acct[u] = list[len(list)-st.Waiting[i]:], st.OrgAcct[i]
	}
	st.QueueState, st.Waiting, st.OrgAcct = queues, nil, acct
}

// Restore rebuilds the shared queues from the decision schedule and
// holds every hypothetical schedule to them. A waiting count that is
// negative, missing or past the organization's released jobs is
// refused, and so is one that queues again a job the schedule runs. A
// hypothetical schedule as the retired version-4 layout wrote it — its
// window of the queues and pending list in place of waiting counts, an
// account for every organization — is refused whole and in each part,
// in a document of the current version. (That layout's reader once
// added a non-member's account into the coalition's value: v({A}) read
// 10 048 instead of 55, and B's and C's φ at t = 400 came out
// negative.)
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
	restore := func(doctor func(*Checkpoint, *sim.ClusterState) bool) (Stepper, error) {
		t.Helper()
		var cp Checkpoint
		if err := json.Unmarshal(clean, &cp); err != nil {
			t.Fatal(err)
		}
		hypothetical := cp.Clusters[:len(cp.Clusters)-1] // the grand coalition's is last
		doctored := false
		for i := range hypothetical {
			if doctored = doctor(&cp, &hypothetical[i]); doctored {
				break
			}
		}
		if !doctored {
			t.Fatal("no hypothetical schedule to doctor")
		}
		return RefAlgorithm{}.RestoreStepper(&cp)
	}
	restored, err := restore(func(*Checkpoint, *sim.ClusterState) bool { return true })
	if err != nil {
		t.Fatalf("the undoctored checkpoint is refused: %v", err)
	}
	if got := captureJSON(t, restored, 10); !bytes.Equal(got, clean) {
		t.Fatalf("the undoctored checkpoint re-captures\n%s\nwant\n%s", got, clean)
	}
	// singleton picks the schedule of {A}, whose waiting count says one
	// of A's released jobs waits.
	singleton := func(edit func(*Checkpoint, *sim.ClusterState)) func(*Checkpoint, *sim.ClusterState) bool {
		return func(cp *Checkpoint, st *sim.ClusterState) bool {
			if st.Coalition != model.Singleton(0) || st.AtRelease || st.Waiting[0] == 0 {
				return false
			}
			edit(cp, st)
			return true
		}
	}
	for name, doctor := range map[string]func(*Checkpoint, *sim.ClusterState) bool{
		"a waiting count past the released jobs": func(_ *Checkpoint, st *sim.ClusterState) bool { st.Waiting[0] = 1000; return true },
		"a negative waiting count":               func(_ *Checkpoint, st *sim.ClusterState) bool { st.Waiting[0] = -1; return true },
		"a waiting count missing": func(_ *Checkpoint, st *sim.ClusterState) bool {
			st.Waiting = st.Waiting[1:]
			return true
		},
		"a running job queued again": func(_ *Checkpoint, st *sim.ClusterState) bool {
			if len(st.Running) == 0 {
				return false
			}
			for i, u := range st.Coalition.Members() {
				if in.Jobs[st.Running[0].Job].Org == u {
					st.Waiting[i] = 4 // every job of u released by 10
				}
			}
			return true
		},
		"the version-4 layout": singleton(legacyState),
		"its window of the queues": singleton(func(cp *Checkpoint, st *sim.ClusterState) {
			legacyState(cp, st)
			st.ReleaseOrder, st.Waiting, st.OrgAcct = nil, []int{len(st.Queues[0])}, st.OrgAcct[:1]
		}),
		"its pending list": singleton(func(cp *Checkpoint, st *sim.ClusterState) {
			waiting, acct := st.Waiting, st.OrgAcct
			legacyState(cp, st)
			st.Queues, st.Waiting, st.OrgAcct = nil, waiting, acct
		}),
		"an account for every organization": singleton(func(cp *Checkpoint, st *sim.ClusterState) {
			waiting := st.Waiting
			legacyState(cp, st)
			st.QueueState, st.Waiting = nil, waiting
		}),
	} {
		if _, err := restore(doctor); err == nil || !strings.Contains(err.Error(), "sim: restore") {
			t.Errorf("%s in a hypothetical schedule: restore error %v, want a refusal", name, err)
		}
	}
}
