package fed_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/fed"
	"repro/internal/model"
)

// parentCkpt is the run behind testdata/ckpt_parent_{direct,gated}.json:
// a saturated two-machine REF site next to an idle four-machine one,
// every job handed in at the busy site, under migrating least-loaded
// routing at staleness 30, stopped at parentCkptAt — mid gossip period,
// so the cached exchange rides in the checkpoint; after the first
// round of migrations and before the next; and, gated, with
// token-bucket deferrals waiting on their retry events.
const (
	parentCkptAt      = model.Time(50)
	parentCkptHorizon = model.Time(4000)
)

var parentCkptOrgs = []string{"o0", "o1"}

func parentCkptSpecs() []fed.ClusterSpec {
	return []fed.ClusterSpec{
		{Name: "busy", Alg: algFactory("ref"), Machines: []int{1, 1}},
		{Name: "idle", Alg: algFactory("directcontr"), Machines: []int{2, 2}},
	}
}

func parentCkptPolicy() fed.Policy { return fed.Migrating{Inner: fed.LeastLoaded{}, Budget: 2} }

func parentCkptFederation(t testing.TB, gated bool) *fed.Federation {
	t.Helper()
	f, err := fed.New(parentCkptOrgs, parentCkptSpecs(), parentCkptPolicy(), 5)
	if err != nil {
		t.Fatal(err)
	}
	f.SetStaleness(30)
	if gated {
		spec := &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 1, Period: 5, Burst: 2, MaxAttempts: 3}
		if err := f.SetAdmission(spec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		if _, err := f.Submit(0, i%2, 6, model.Time(2*i)); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// testdata/ckpt_parent_*.json were written by the commit before the
// direct and plane release loops became one, gated and ungated, with
// version-1 member snapshots and the per-member "machines" rows that
// duplicated them; ckpt_v2_*.json are the same runs at the same instant
// from the first writer of version-2 member snapshots — both federation
// version 4 — ckpt_v5_*.json from the first writer of federation
// version 5 (version-3 members), ckpt_v6_*.json from the first writer
// of version 6 (observation-only exchange summaries, a version-2
// control block), and ckpt_core4_*.json and ckpt_core5_*.json, still
// version 6, from the first writers of version-4 and version-5 members.
// All of them were stepped with members dispatching an instant before
// its releases were delivered, so the state they hold is not one the
// current loop reaches: each must restore under the current code,
// conserve work, re-capture to a document that restores to the same
// bytes, and run on to the horizon identically from either. An older
// file cannot re-capture to its own bytes (rows, cluster fields, the
// federation-level copies, the summaries' configuration columns, the
// control queue's numbering, the members' running-entry ends, fold marks
// and decision-schedule accounts, and their hypothetical schedules'
// queues, pending releases and machine-owner accounts are no longer
// written). ckpt_order_*.json are the same runs from the first writer
// of the current instant order, ckpt_core6_*.json from the first writer
// of version-6 members, ckpt_core7_*.json from the first writer of
// version-7 members (the busy site's singletons written as release-start
// schedules) and ckpt_v7_*.json from the first writer of version 7 (the
// instant the cached exchange observed): the restore of each runs on
// exactly as an uninterrupted run, and a v7 file is a fresh run's
// snapshot byte for byte (an order file's members say version 5, a
// core6 file's version 6, and a core7 file is a version-6 document).
func TestParentCheckpointsRestore(t *testing.T) {
	for _, name := range []string{"direct", "gated", "direct/v2", "gated/v2", "direct/v5", "gated/v5", "direct/v6", "gated/v6", "direct/core4", "gated/core4", "direct/core5", "gated/core5", "direct/order", "gated/order", "direct/core6", "gated/core6", "direct/core7", "gated/core7", "direct/v7", "gated/v7"} {
		run, version, old := strings.Cut(name, "/")
		if !old {
			version = "parent"
		}
		gated, v2, v5, v6, core4, core5, order, v7 := run == "gated", version == "v2", version == "v5", version == "v6", version == "core4", version == "core5", version == "order", version == "v7"
		order = order || version == "core6" || version == "core7" || v7 // of the current instant order too
		core5 = core5 || order                                          // its members are version 5 or later
		v6 = v6 || core4 || core5                                       // a core4, core5, order, core6, core7 or v7 file is a version-6 document or later
		file := "ckpt_" + version + "_" + run + ".json"
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", file))
			if err != nil {
				t.Fatal(err)
			}
			raw = bytes.TrimSpace(raw)
			if old := bytes.Contains(raw, []byte(`"machines":[`)) && bytes.Contains(raw, []byte("flushed_at")); old == (v2 || v5 || v6) {
				t.Fatalf("the fixture carries machines rows and version-1 cluster states: %v", old)
			}
			if old := bytes.HasPrefix(raw, []byte(`{"version":4,`)) && bytes.Contains(raw, []byte(`"next_seq":`)) && bytes.Contains(raw, []byte(`"routed":`)); old == (v5 || v6) {
				t.Fatalf("the fixture is a version-4 document with a sequence counter and a placement ledger: %v", old)
			}
			if old := bytes.Contains(raw, []byte(`"org_capacity":`)); old == v6 {
				t.Fatalf("the fixture's exchange summaries carry their configuration: %v", old)
			}
			if old := bytes.Contains(raw, []byte(`"acc_from":`)); old == (core4 || core5) {
				t.Fatalf("the fixture's members carry running entries' fold marks: %v", old)
			}
			if old := bytes.Contains(raw, []byte(`"own_acct":`)); old == core5 {
				t.Fatalf("the fixture's members carry machine-owner accounts: %v", old)
			}
			restored, err := fed.Restore(parentCkptOrgs, parentCkptSpecs(), parentCkptPolicy(), raw)
			if err != nil {
				t.Fatal(err)
			}
			if (restored.Admission() != nil) != gated {
				t.Fatalf("restored with admission %+v", restored.Admission())
			}
			if gated && deferred(restored.AdmissionStats()) == 0 {
				t.Fatal("the gated checkpoint carries no deferred admission — it does not exercise the plane's event queue")
			}
			if ledger := restored.Ledger(); ledger.Migrations == 0 {
				t.Fatal("the checkpoint predates the first migration — it does not exercise re-delegation")
			}
			if err := restored.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			recaptured, err := restored.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			again, err := fed.Restore(parentCkptOrgs, parentCkptSpecs(), parentCkptPolicy(), recaptured)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := again.Snapshot(); err != nil || !bytes.Equal(got, recaptured) {
				t.Errorf("the re-captured document is not a fixed point of restore (err %v)", err)
			}
			other := again
			if order {
				straight := parentCkptFederation(t, gated)
				if _, err := straight.Step(parentCkptAt); err != nil {
					t.Fatal(err)
				}
				want, err := straight.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if v7 && !bytes.Equal(want, raw) {
					t.Errorf("a fresh run's snapshot at t=%d differs from the fixture's bytes (%d B, fixture %d B)", parentCkptAt, len(want), len(raw))
				}
				other = straight
			}
			if _, err := other.Step(parentCkptHorizon); err != nil {
				t.Fatal(err)
			}
			if _, err := restored.Step(parentCkptHorizon); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fingerprint(t, restored), fingerprint(t, other)) {
				t.Fatal("restored run diverged from its twin")
			}
			if err := restored.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			if a, b := fmt.Sprintf("%+v", other.AdmissionStats()), fmt.Sprintf("%+v", restored.AdmissionStats()); a != b {
				t.Fatalf("admission stats diverged:\n%s\n%s", a, b)
			}
		})
	}
}

// TestCurrentVersionsHaveFixtures fails when a checkpoint layout has no
// committed document: core.CheckpointVersion needs a core fixture of its
// version (internal/core/testdata/ckpt_v<N>_*.json) and a federation
// fixture whose members are of it, and fed.CheckpointVersion a
// federation fixture of its own (testdata/ckpt_v<N>_*.json). A version
// bump then lands with the documents the restore tests hold every later
// build to.
func TestCurrentVersionsHaveFixtures(t *testing.T) {
	version := func(t *testing.T, data []byte) int {
		t.Helper()
		var doc struct {
			Version int `json:"version"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		return doc.Version
	}
	fixtures := func(pattern string) map[string][]byte {
		t.Helper()
		names, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, name := range names {
			if out[name], err = os.ReadFile(name); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	coreDocs := fixtures(filepath.Join("..", "core", "testdata", fmt.Sprintf("ckpt_v%d_*.json", core.CheckpointVersion)))
	if len(coreDocs) == 0 {
		t.Errorf("core checkpoint version %d has no fixture under internal/core/testdata", core.CheckpointVersion)
	}
	for name, data := range coreDocs {
		if v := version(t, data); v != core.CheckpointVersion {
			t.Errorf("%s is a version-%d document", name, v)
		}
	}
	fedDocs := fixtures(filepath.Join("testdata", fmt.Sprintf("ckpt_v%d_*.json", fed.CheckpointVersion)))
	if len(fedDocs) == 0 {
		t.Errorf("federation checkpoint version %d has no fixture under internal/fed/testdata", fed.CheckpointVersion)
	}
	for name, data := range fedDocs {
		if v := version(t, data); v != fed.CheckpointVersion {
			t.Errorf("%s is a version-%d document", name, v)
		}
	}
	members := false
	for _, data := range fixtures(filepath.Join("testdata", "ckpt_*.json")) {
		var doc fed.Checkpoint
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		for _, m := range doc.Members {
			members = members || m.Engine != nil && m.Engine.Version == core.CheckpointVersion
		}
	}
	if !members {
		t.Errorf("no federation fixture under internal/fed/testdata has members of core checkpoint version %d", core.CheckpointVersion)
	}
}
