package fed_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

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

// The committed checkpoints were written by the commit before the
// direct and plane release loops became one, gated and ungated. Each
// must restore under the current code, re-capture to the parent's bytes
// — as must a fresh run stepped to the same instant, so the layout did
// not move, but for the per-member "machines" rows that duplicated the
// engine snapshots and are no longer written or read — and run on to
// the horizon exactly as an uninterrupted run.
func TestParentCheckpointsRestore(t *testing.T) {
	for _, gated := range []bool{false, true} {
		name := "direct"
		if gated {
			name = "gated"
		}
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", "ckpt_parent_"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			raw = bytes.TrimSpace(raw)
			restored, err := fed.Restore(parentCkptOrgs, parentCkptSpecs(), parentCkptPolicy(), raw)
			if err != nil {
				t.Fatal(err)
			}
			if (restored.Admission() != nil) != gated {
				t.Fatalf("restored with admission %+v", restored.Admission())
			}
			if gated && restored.AdmissionStats().TotalDeferred() == 0 {
				t.Fatal("the gated checkpoint carries no deferred admission — it does not exercise the plane's event queue")
			}
			if ledger := restored.Ledger(); ledger.Migrations == 0 {
				t.Fatal("the checkpoint predates the first migration — it does not exercise re-delegation")
			}
			want := regexp.MustCompile(`"machines":\[[0-9,]*\],`).ReplaceAll(raw, nil)
			if len(want) == len(raw) {
				t.Fatal("the fixture carries no machines rows — it does not exercise reading past them")
			}
			straight := parentCkptFederation(t, gated)
			if _, err := straight.Step(parentCkptAt); err != nil {
				t.Fatal(err)
			}
			for label, f := range map[string]*fed.Federation{"restored": restored, "fresh": straight} {
				snap, err := f.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(snap, want) {
					t.Errorf("%s run's snapshot at t=%d differs from the parent's bytes", label, parentCkptAt)
				}
			}
			if _, err := straight.Step(parentCkptHorizon); err != nil {
				t.Fatal(err)
			}
			if _, err := restored.Step(parentCkptHorizon); err != nil {
				t.Fatal(err)
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
	}
}
