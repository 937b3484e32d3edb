package fed_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fed"
	"repro/internal/model"
)

// calmStream thins gatedStream to every eighth job: at an eighth of the
// load the members keep up, and no job migrates.
func calmStream(rounds int) [][]fed.SourceJob {
	stream := gatedStream(rounds)
	for i, batch := range stream {
		var kept []fed.SourceJob
		for j := 0; j < len(batch); j += 8 {
			kept = append(kept, batch[j])
		}
		stream[i] = kept
	}
	return stream
}

// TestChunkedStepping: a federation steps its members only where it
// reads them — at an exchange capture and at a Step's end — so how a
// caller chunks its Steps must not show. On the fed-gated shape each
// 40-tick round is stepped three ways: as one Step; one instant at a
// time; and one instant at a time with the policy's Scorer hidden, so
// that every job, queued ones in a migration pass too, routes by its own
// RouteLedger call — the reference for the pass that asks a Scorer once
// per member. After every round the three agree on the round's
// decisions, on decisions, ledger and ψ (fingerprint) and on Snapshot
// bytes: fednbs-migrate and fedref-migrate, fresh and stale gossip,
// plane off and token-bucket gated, on gatedStream, which migrates, and
// on calmStream, which does not.
func TestChunkedStepping(t *testing.T) {
	const rounds = 10
	streams := []struct {
		name      string
		jobs      [][]fed.SourceJob
		migrating bool
	}{{"migrating", gatedStream(rounds), true}, {"calm", calmStream(rounds), false}}
	for _, name := range []string{"fednbs-migrate", "fedref-migrate"} {
		policy, err := fed.PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, staleness := range []model.Time{0, gatedStaleness} {
			for _, gate := range []bool{false, true} {
				for _, s := range streams {
					label := fmt.Sprintf("%s/staleness=%d/gate=%v/%s", name, staleness, gate, s.name)
					t.Run(label, func(t *testing.T) {
						ways := []string{"round", "instants", "per-job instants"}
						runs := make([]*fed.Federation, len(ways))
						for i, way := range ways {
							p := policy
							if way == "per-job instants" {
								p = hide(t, policy)
							}
							runs[i] = gatedFederation(t, p, staleness, gate, s.jobs, nil)
						}
						for r := 0; r < rounds; r++ {
							from, until := model.Time(r)*gatedTicks, model.Time(r+1)*gatedTicks
							var want []byte
							for i, f := range runs {
								if _, err := f.SubmitJobs(s.jobs[r+1]); err != nil {
									t.Fatal(err)
								}
								// The first one-instant Step stands still at
								// the clock and delivers the releases due there.
								first := until
								if ways[i] != "round" {
									first = from
								}
								var decs []fed.Decision
								for u := first; u <= until; u++ {
									fresh, err := f.Step(u)
									if err != nil {
										t.Fatal(err)
									}
									decs = append(decs, fresh...)
								}
								if err := f.CheckConservation(); err != nil {
									t.Fatal(err)
								}
								snap, err := f.Snapshot()
								if err != nil {
									t.Fatal(err)
								}
								got := fmt.Appendf(nil, "%+v\n%s\n%s", decs, fingerprint(t, f), snap)
								if i == 0 {
									want = got
								} else if !bytes.Equal(got, want) {
									t.Fatalf("round %d: stepping %s diverges from one Step per round", r, ways[i])
								}
							}
						}
						if migrated := runs[0].Ledger().Migrations > 0; migrated != s.migrating {
							t.Errorf("%d migrations: the %s stream does not cover what it is for", runs[0].Ledger().Migrations, s.name)
						}
					})
				}
			}
		}
	}
}
