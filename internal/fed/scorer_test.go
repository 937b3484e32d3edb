package fed_test

import (
	"bytes"
	"testing"

	"repro/internal/fed"
	"repro/internal/model"
)

// opaque shows the federation only Name, Route and RouteLedger of a
// Scorer, so its jobs route the per-job way, through the sink's memo,
// as every policy that is not a Scorer does. Each call checks that the
// exchange's summaries carry one instant: Scores reads it from any.
type opaque struct {
	inner fed.LedgerPolicy
	t     *testing.T
}

func (p opaque) Name() string { return p.inner.Name() }

func (p opaque) Route(org, origin int, sums []fed.Summary) int {
	return p.inner.Route(org, origin, sums)
}

func (p opaque) RouteLedger(org, origin int, sums []fed.Summary, routed [][]int64) int {
	for _, s := range sums {
		if s.Now != sums[0].Now {
			p.t.Fatalf("an exchange's summaries stand at %d and %d", sums[0].Now, s.Now)
		}
	}
	return p.inner.RouteLedger(org, origin, sums, routed)
}

// hide wraps a policy's scoring in opaque, under its migration wrapper
// when it has one.
func hide(t *testing.T, p fed.Policy) fed.Policy {
	if m, ok := p.(fed.Migrating); ok {
		m.Inner = opaque{inner: m.Inner.(fed.LedgerPolicy), t: t}
		return m
	}
	return opaque{inner: p.(fed.LedgerPolicy), t: t}
}

// TestScorerMatchesPerJobRouting: a Scorer's federation, which scores
// each exchange once and routes every job by an argmax over the
// vector, decides, accounts and checkpoints byte for byte as the same
// policy asked per (organization, origin) through RouteLedger — fresh
// and stale gossip, plane off and token-bucket gated, and across a
// Snapshot → Restore in the middle of a staleness period, which
// re-scores the restored exchange.
func TestScorerMatchesPerJobRouting(t *testing.T) {
	const rounds, cut = 14, 6 // the cut, at instant 240, falls between gossips at staleness 25
	stream := gatedStream(rounds)
	for _, name := range []string{"fedref", "fedref-migrate", "fednbs", "fednbs-migrate", "fedref-sample64"} {
		for _, staleness := range []model.Time{0, gatedStaleness} {
			for _, gate := range []bool{false, true} {
				label := name + map[bool]string{false: "/off", true: "/tokenbucket"}[gate]
				if staleness > 0 {
					label += "/stale"
				}
				t.Run(label, func(t *testing.T) {
					policy, err := fed.PolicyByName(name)
					if err != nil {
						t.Fatal(err)
					}
					if _, ok := policy.(fed.Scorer); !ok {
						if _, ok := policy.(fed.Migrating).Inner.(fed.Scorer); !ok {
							t.Fatalf("%s is not a Scorer", name)
						}
					}
					runs := map[string]*fed.Federation{}
					for _, way := range []string{"scored", "per-job", "scored/restored", "per-job/restored"} {
						p := policy
						if way == "per-job" || way == "per-job/restored" {
							p = hide(t, policy)
						}
						f := gatedFederation(t, p, staleness, gate, stream, nil)
						for r := 0; r < rounds; r++ {
							if r == cut && (way == "scored/restored" || way == "per-job/restored") {
								snap, err := f.Snapshot()
								if err != nil {
									t.Fatal(err)
								}
								if f, err = fed.Restore(gatedOrgNames(), gatedClusters(), p, snap); err != nil {
									t.Fatal(err)
								}
							}
							gatedRound(t, f, stream, r)
						}
						if err := f.CheckConservation(); err != nil {
							t.Fatal(err)
						}
						runs[way] = f
					}
					for _, pair := range [][2]string{{"scored", "per-job"}, {"scored/restored", "per-job/restored"}} {
						a, b := runs[pair[0]], runs[pair[1]]
						if !bytes.Equal(fingerprint(t, a), fingerprint(t, b)) {
							t.Errorf("%s and %s runs decide or account differently", pair[0], pair[1])
						}
						sa, err := a.Snapshot()
						if err != nil {
							t.Fatal(err)
						}
						sb, err := b.Snapshot()
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(sa, sb) {
							t.Errorf("%s and %s runs checkpoint differently", pair[0], pair[1])
						}
					}
					if n := len(runs["scored"].Decisions()); n == 0 {
						t.Fatal("nothing started")
					}
				})
			}
		}
	}
}
