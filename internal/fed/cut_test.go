package fed_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fed"
	"repro/internal/model"
)

// cutPolicies is every delegation policy family: the baselines, the
// fairness heuristics, FedREF exact and sampled, FedNBS, and the
// migrating variants.
var cutPolicies = []string{
	"local", "leastloaded", "fairness", "fairness-capacity", "fairness-decay", "fairness-migrate",
	"fedref", "fedref-migrate", "fedref-sample8", "fedref-sample8-migrate", "fednbs", "fednbs-migrate",
}

// cutFederation is seed s of the cut battery: three DIRECTCONTR members
// on machines [1,1], [2,0] and [0,2], organizations o0 and o1, gossip
// staleness 7, and 60 jobs — origin, organization, size 1..20, release
// 0..119 — drawn from rand.NewSource(s) and submitted upfront. Between
// gossips the members' values move at every tick.
func cutFederation(t testing.TB, policy fed.Policy, s int64) *fed.Federation {
	t.Helper()
	f, err := fed.New(cutOrgs, cutSpecs(), policy, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.SetStaleness(7)
	r := rand.New(rand.NewSource(s))
	for i := 0; i < 60; i++ {
		origin, org := r.Intn(3), r.Intn(2)
		size := model.Time(1 + r.Intn(20))
		if _, err := f.Submit(origin, org, size, model.Time(r.Intn(120))); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestRestoreAtEveryInstant cuts each policy's federation at every
// instant 1..199 — inside gossip periods and on their edges, with values
// moving every tick — restores the checkpoint and runs it to 400: the
// decision log, ledger, every member's ψ (fingerprint) and the
// checkpoint at 400 must equal the uninterrupted run's, byte for byte.
// The run that is cut is stepped one instant at a time, so its log must
// also come out as the uninterrupted run's however the Steps are
// chunked. (A restored federation used to route on the exchange
// instant where the live one read the members' clock, one tick
// earlier, and the log's order followed the Steps' chunks.)
func TestRestoreAtEveryInstant(t *testing.T) {
	for _, name := range cutPolicies {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			policy, err := fed.PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for s := int64(1); s <= 8; s++ {
				straight := cutFederation(t, policy, s)
				if _, err := straight.Step(400); err != nil {
					t.Fatal(err)
				}
				want, wantSnap := fingerprint(t, straight), snapshot(t, straight)
				cut := cutFederation(t, policy, s)
				var failed []string
				for at := model.Time(1); at < 200; at++ {
					if _, err := cut.Step(at); err != nil {
						t.Fatal(err)
					}
					restored, err := fed.Restore(cutOrgs, cutSpecs(), policy, snapshot(t, cut))
					if err != nil {
						t.Fatalf("seed %d, cut %d: %v", s, at, err)
					}
					if _, err := restored.Step(400); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(fingerprint(t, restored), want) || !bytes.Equal(snapshot(t, restored), wantSnap) {
						failed = append(failed, fmt.Sprint(at))
					}
				}
				if _, err := cut.Step(400); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fingerprint(t, cut), want) {
					t.Errorf("seed %d: stepped one instant at a time, the run logs another fingerprint", s)
				}
				if len(failed) > 0 {
					t.Errorf("seed %d: restored at %d of 199 cuts (the first at %s), the run diverges from the uninterrupted one", s, len(failed), failed[0])
				}
			}
		})
	}
}

var cutOrgs = []string{"o0", "o1"}

func cutSpecs() []fed.ClusterSpec {
	return []fed.ClusterSpec{
		{Name: "c0", Alg: algFactory("directcontr"), Machines: []int{1, 1}},
		{Name: "c1", Alg: algFactory("directcontr"), Machines: []int{2, 0}},
		{Name: "c2", Alg: algFactory("directcontr"), Machines: []int{0, 2}},
	}
}

func snapshot(t testing.TB, f *fed.Federation) []byte {
	t.Helper()
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}
