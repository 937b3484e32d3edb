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

// parentCkpt is the run behind testdata/ckpt_v{7,8}_{direct,gated}.json:
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

// testdata/ckpt_v8_{direct,gated}.json are parentCkptFederation
// stepped to parentCkptAt, from the first writer of the current layout.
// Each is a fresh run's snapshot byte for byte; it restores with its
// migrations, cached exchange and, gated, deferred admissions, conserves
// work, re-captures to its own bytes and runs on to the horizon exactly
// as the uninterrupted run. testdata/ckpt_v7_*.json are the same states
// in the previous layout, whose control block also carried its own
// version and policy: within DESIGN.md §7.1's window each restores
// unedited, through the same decode, to the state that re-captures as
// its version-8 twin. Every other federation version, 1 to 6 and 9, or
// members under a retired core version (coreN), is refused with an
// error naming the version it reads.
func TestParentCheckpointsRestore(t *testing.T) {
	restore := func(doc []byte) (*fed.Federation, error) {
		return fed.Restore(parentCkptOrgs, parentCkptSpecs(), parentCkptPolicy(), doc)
	}
	refused := func(t *testing.T, doc []byte, want string) {
		t.Helper()
		if _, err := restore(doc); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("restore answered %v, want an error mentioning %q", err, want)
		}
	}
	fixture := func(t *testing.T, version int, run string) []byte {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join("testdata", fmt.Sprintf("ckpt_v%d_%s.json", version, run)))
		if err != nil {
			t.Fatal(err)
		}
		return bytes.TrimSpace(raw)
	}
	for _, run := range []string{"direct", "gated"} {
		t.Run(run, func(t *testing.T) {
			gated := run == "gated"
			raw := fixture(t, fed.CheckpointVersion, run)
			for _, version := range []int{1, 2, 3, 4, 5, 6, fed.CheckpointVersion + 1} {
				t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
					header := func(v int) []byte { return []byte(fmt.Sprintf(`{"version":%d,`, v)) }
					refused(t, bytes.Replace(raw, header(fed.CheckpointVersion), header(version), 1),
						fmt.Sprintf("fed: restore: checkpoint version %d, want %d or %d", version, fed.CheckpointVersion-1, fed.CheckpointVersion))
				})
			}
			t.Run(fmt.Sprintf("v%d", fed.CheckpointVersion-1), func(t *testing.T) {
				prev := fixture(t, fed.CheckpointVersion-1, run)
				if gated != bytes.Contains(prev, []byte(`"ctrl":{"version":2,"policy":"tokenbucket",`)) {
					t.Fatal("the previous layout's gated fixture carries the control block's own version and policy, the direct one no block")
				}
				restored, err := restore(prev)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := restored.Snapshot(); err != nil || !bytes.Equal(got, raw) {
					t.Errorf("the version-%d fixture re-captures other than its version-%d twin (err %v):\n%s", fed.CheckpointVersion-1, fed.CheckpointVersion, err, got)
				}
			})
			for version := 1; version < core.CheckpointVersion; version++ {
				t.Run(fmt.Sprintf("core%d", version), func(t *testing.T) {
					var cp fed.Checkpoint
					if err := json.Unmarshal(raw, &cp); err != nil {
						t.Fatal(err)
					}
					for _, m := range cp.Members {
						m.Engine.Version = version
					}
					doc, err := json.Marshal(cp)
					if err != nil {
						t.Fatal(err)
					}
					refused(t, doc, fmt.Sprintf("core: restore: checkpoint version %d, want %d", version, core.CheckpointVersion))
				})
			}
			t.Run(fmt.Sprintf("v%d", fed.CheckpointVersion), func(t *testing.T) {
				restored, err := restore(raw)
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
				if got, err := restored.Snapshot(); err != nil || !bytes.Equal(got, raw) {
					t.Errorf("the restored federation's snapshot is not the fixture's bytes (err %v)", err)
				}
				// Two adjacent decisions of different members swap places
				// in the order without touching either member's log: the
				// swap is refused where it makes the instants fall, and
				// taken at one instant.
				decs := restored.Decisions()
				falls := 0
				for i := 0; i+1 < len(decs); i++ {
					if decs[i].Cluster == decs[i+1].Cluster {
						continue
					}
					var cp fed.Checkpoint
					if err := json.Unmarshal(raw, &cp); err != nil {
						t.Fatal(err)
					}
					cp.Order[i], cp.Order[i+1] = cp.Order[i+1], cp.Order[i]
					doc, err := json.Marshal(cp)
					if err != nil {
						t.Fatal(err)
					}
					if decs[i].At == decs[i+1].At {
						if _, err := restore(doc); err != nil {
							t.Errorf("order swapped at instant %d: %v", decs[i].At, err)
						}
						continue
					}
					refused(t, doc, fmt.Sprintf("fed: restore: decision order puts cluster %d's start at %d after a start at %d", decs[i].Cluster, decs[i].At, decs[i+1].At))
					falls++
				}
				if falls == 0 {
					t.Fatal("no two adjacent decisions of different members at different instants: the order check goes unexercised")
				}
				straight := parentCkptFederation(t, gated)
				if _, err := straight.Step(parentCkptAt); err != nil {
					t.Fatal(err)
				}
				if want, err := straight.Snapshot(); err != nil || !bytes.Equal(want, raw) {
					t.Errorf("a fresh run's snapshot at t=%d differs from the fixture's bytes (%d B, fixture %d B, err %v)", parentCkptAt, len(want), len(raw), err)
				}
				for _, f := range []*fed.Federation{straight, restored} {
					if _, err := f.Step(parentCkptHorizon); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(fingerprint(t, restored), fingerprint(t, straight)) {
					t.Fatal("restored run diverged from the uninterrupted one")
				}
				if err := restored.CheckConservation(); err != nil {
					t.Fatal(err)
				}
				if a, b := fmt.Sprintf("%+v", straight.AdmissionStats()), fmt.Sprintf("%+v", restored.AdmissionStats()); a != b {
					t.Fatalf("admission stats diverged:\n%s\n%s", a, b)
				}
			})
		})
	}
}

// The decision log's instants never decrease, but only each Step's
// chunk of it is by (instant, member): a job submitted for release at
// the clock lets the next Step log member 0 after member 1 at that
// instant. Restore takes the order such a run writes, re-captures it
// byte for byte with the same decisions, and takes the two decisions
// swapped too: at one instant either order is a run's.
func TestDecisionOrderAcrossSteps(t *testing.T) {
	orgs := []string{"o0", "o1"}
	specs := []fed.ClusterSpec{
		{Name: "a", Alg: algFactory("directcontr"), Machines: []int{1, 1}},
		{Name: "b", Alg: algFactory("directcontr"), Machines: []int{1, 1}},
	}
	f, err := fed.New(orgs, specs, fed.LocalOnly{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, origin := range []int{1, 0} {
		if _, err := f.Submit(origin, 0, 3, 5); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Step(5); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var cp fed.Checkpoint
	if err := json.Unmarshal(snap, &cp); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(cp.Order) != "[1 0]" {
		t.Fatalf("decision order %v, want [1 0]: member 1 started at 5 a Step before member 0 did", cp.Order)
	}
	restored, err := fed.Restore(orgs, specs, fed.LocalOnly{}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := restored.Snapshot(); err != nil || !bytes.Equal(got, snap) {
		t.Errorf("re-captured %s (err %v), want %s", got, err, snap)
	}
	if got, want := fmt.Sprintf("%+v", restored.Decisions()), fmt.Sprintf("%+v", f.Decisions()); got != want {
		t.Errorf("restored decisions %s, want %s", got, want)
	}
	cp.Order[0], cp.Order[1] = cp.Order[1], cp.Order[0]
	doc, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Restore(orgs, specs, fed.LocalOnly{}, doc); err != nil {
		t.Errorf("the same-instant swap is refused: %v", err)
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
