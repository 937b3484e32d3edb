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

// cutSamples is how many of a seed's 199 cuts restore and run on to 400.
const cutSamples = 8

// longCuts is seed s's sample of cuts whose restored run goes on to 400:
// cutSamples of the instants 1..199, drawn from rand.NewSource(-s), so
// the seed alone fixes the sample, before any federation runs.
func longCuts(s int64) map[model.Time]bool {
	cuts := map[model.Time]bool{}
	for _, i := range rand.New(rand.NewSource(-s)).Perm(199)[:cutSamples] {
		cuts[model.Time(i+1)] = true
	}
	return cuts
}

// TestRestoreAtEveryInstant cuts each policy's federation at every
// instant 1..199 — inside gossip periods and on their edges, with values
// moving every tick — and restores the checkpoint. One instant on, the
// restored federation's decision log, ledger, every member's ψ
// (fingerprint) and checkpoint must equal the cut run's, byte for byte;
// at longCuts, restored again and run to 400, they must equal the
// uninterrupted run's. The cut run is stepped one instant at a time, so
// its log must also come out as the uninterrupted run's however the
// Steps are chunked. (A restored federation used to route on the
// exchange instant where the live one read the members' clock, one tick
// earlier, and the log's order followed the Steps' chunks.)
func TestRestoreAtEveryInstant(t *testing.T) {
	for _, name := range cutPolicies {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			policy, err := fed.PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			step := func(f *fed.Federation, until model.Time) {
				if _, err := f.Step(until); err != nil {
					t.Fatal(err)
				}
			}
			restore := func(s int64, at model.Time, snap []byte) *fed.Federation {
				f, err := fed.Restore(cutOrgs, cutSpecs(), policy, snap)
				if err != nil {
					t.Fatalf("seed %d, cut %d: %v", s, at, err)
				}
				return f
			}
			for s := int64(1); s <= 8; s++ {
				long := longCuts(s)
				straight := cutFederation(t, policy, s)
				step(straight, 400)
				want, wantSnap := fingerprint(t, straight), snapshot(t, straight)
				cut := cutFederation(t, policy, s)
				step(cut, 1)
				snap := snapshot(t, cut)
				var failed []string
				for at := model.Time(1); at < 200; at++ {
					restored := restore(s, at, snap)
					step(restored, at+1)
					step(cut, at+1)
					same := bytes.Equal(fingerprint(t, restored), fingerprint(t, cut))
					if long[at] {
						again := restore(s, at, snap)
						step(again, 400)
						same = same && bytes.Equal(fingerprint(t, again), want) && bytes.Equal(snapshot(t, again), wantSnap)
					}
					snap = snapshot(t, cut)
					if !same || !bytes.Equal(snapshot(t, restored), snap) {
						failed = append(failed, fmt.Sprint(at))
					}
				}
				step(cut, 400)
				if !bytes.Equal(fingerprint(t, cut), want) {
					t.Errorf("seed %d: stepped one instant at a time, the run logs another fingerprint", s)
				}
				if len(failed) > 0 {
					t.Errorf("seed %d: restored at %d of 199 cuts (the first at %s), the run diverges from the cut run one instant on, or at 400 from the uninterrupted one", s, len(failed), failed[0])
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
