package fed_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fed"
	"repro/internal/model"
)

// TestMigrationDisabledMatchesBase is the migration differential: a
// Migrating wrapper with budget 0 must reproduce the bare inner
// policy's federation byte for byte — identical decision logs, ledger
// and ψ — at every staleness setting. The wrapper may only ever change
// behavior through actual migrations.
func TestMigrationDisabledMatchesBase(t *testing.T) {
	algs := []string{"ref", "directcontr", "fairshare"}
	cases := []struct {
		base  fed.Policy
		inner fed.Policy
	}{
		{fed.RefPolicy{}, fed.RefPolicy{}},
		{fed.FairnessAware{}, fed.FairnessAware{}},
		{fed.LeastLoaded{}, fed.LeastLoaded{}},
	}
	for _, tc := range cases {
		wrapped := fed.Migrating{Inner: tc.inner, Budget: 0}
		for _, staleness := range []model.Time{0, 120} {
			staleness := staleness
			t.Run(fmt.Sprintf("%s/staleness=%d", wrapped.Name(), staleness), func(t *testing.T) {
				a, _ := buildFederation(t, algs, tc.base, 11)
				b, _ := buildFederation(t, algs, wrapped, 11)
				a.SetStaleness(staleness)
				b.SetStaleness(staleness)
				if _, err := a.Step(6000); err != nil {
					t.Fatal(err)
				}
				if _, err := b.Step(6000); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fingerprint(t, a), fingerprint(t, b)) {
					t.Fatalf("budget-0 %s diverged from bare %s", wrapped.Name(), tc.base.Name())
				}
				if got := b.Ledger().Migrations; got != 0 {
					t.Fatalf("budget-0 federation migrated %d jobs", got)
				}
			})
		}
	}
}

// TestOneMemberMigrationMatchesSingleClusterRef: the second migration
// differential — a 1-member federation with migration enabled has
// nowhere to move anything, so it must still reproduce its member's
// single-cluster run byte for byte, stale gossip and all.
func TestOneMemberMigrationMatchesSingleClusterRef(t *testing.T) {
	migrating := fed.Migrating{Inner: fed.RefPolicy{}, Budget: fed.DefaultMigrationBudget}
	assertOneMemberMatchesSingleCluster(t, migrating, 0, oneMemberSeeds/4)
	assertOneMemberMatchesSingleCluster(t, migrating, 35, oneMemberSeeds/4)
}

// TestMigrationMovesQueuedJobs: on the deliberately imbalanced
// stale-gossip federation, the re-delegation pass must actually fire —
// queued jobs leave the saturated origin for the idle peer at gossip
// refreshes — while every conservation invariant keeps holding and the
// run drains completely.
func TestMigrationMovesQueuedJobs(t *testing.T) {
	for _, inner := range []fed.Policy{fed.RefPolicy{}, fed.FairnessAware{}} {
		policy := fed.Migrating{Inner: inner, Budget: fed.DefaultMigrationBudget}
		t.Run(policy.Name(), func(t *testing.T) {
			f := stalenessFederation(t, policy, 30)
			if _, err := f.Step(2000); err != nil {
				t.Fatal(err)
			}
			if err := f.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			l := f.Ledger()
			if l.Migrations == 0 {
				t.Fatal("no queued job migrated off a saturated 2-machine origin with a 4-machine idle peer")
			}
			// Full drain: 40 jobs of size 6 were submitted; conservation
			// of executed units across migration means exactly 240 unit
			// slots ran, each sequence number exactly once.
			if got := l.TotalExecuted(); got != 240 {
				t.Fatalf("executed %d unit slots, submitted 240", got)
			}
			seen := make(map[int64]int)
			for _, d := range f.Decisions() {
				seen[d.Seq]++
			}
			if len(seen) != 40 {
				t.Fatalf("%d distinct jobs started, submitted 40", len(seen))
			}
			for seq, n := range seen {
				if n != 1 {
					t.Fatalf("job %d started %d times", seq, n)
				}
			}
		})
	}
}

// TestMigrationBudgetCaps: the per-round budget really is the throttle —
// a budget-1 federation migrates strictly less than a generous one on
// the same congested scenario, and both conserve.
func TestMigrationBudgetCaps(t *testing.T) {
	run := func(budget int) *fed.Federation {
		f := stalenessFederation(t, fed.Migrating{Inner: fed.RefPolicy{}, Budget: budget}, 20)
		if _, err := f.Step(2000); err != nil {
			t.Fatal(err)
		}
		if err := f.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	tight, loose := run(1), run(64)
	nt, nl := tight.Ledger().Migrations, loose.Ledger().Migrations
	if nt == 0 || nl == 0 {
		t.Fatalf("migration inert: %d vs %d migrations", nt, nl)
	}
	if nt >= nl {
		t.Fatalf("budget 1 migrated %d jobs, budget 64 only %d — the cap is not binding", nt, nl)
	}
	// Releases stop at t=78, so with staleness 20 at most ~5 refresh
	// rounds exist: a budget-1 run can never exceed one move per round.
	if nt > 5 {
		t.Fatalf("budget-1 run migrated %d jobs in at most 5 refresh rounds", nt)
	}
}

// TestMigrationCheckpointMidRound: a snapshot taken mid-gossip-period
// of a migrating federation — after some jobs already moved, with the
// stale exchange cache live and tombstones in member engines — must
// resume byte-identically with the uninterrupted run, and snapshot again
// to its own bytes. On NBS members the migrations withdraw jobs from
// schedules that keep a singleton coalition's value too; those write no
// withdrawn list, and nothing they restore depends on one.
func TestMigrationCheckpointMidRound(t *testing.T) {
	for _, tc := range []struct {
		policy fed.Policy
		alg    string
	}{
		{fed.Migrating{Inner: fed.RefPolicy{}, Budget: fed.DefaultMigrationBudget}, "directcontr"},
		{fed.Migrating{Inner: fed.NBSPolicy{}, Budget: fed.DefaultMigrationBudget}, "nbs"},
	} {
		t.Run(tc.policy.Name()+"/"+tc.alg, func(t *testing.T) {
			specs := []fed.ClusterSpec{
				{Name: "busy", Alg: algFactory(tc.alg), Machines: []int{1, 1}},
				{Name: "idle", Alg: algFactory(tc.alg), Machines: []int{2, 2}},
			}
			build := func() *fed.Federation {
				f, err := fed.New([]string{"o0", "o1"}, specs, tc.policy, 9)
				if err != nil {
					t.Fatal(err)
				}
				f.SetStaleness(30)
				for i := 0; i < 40; i++ {
					if _, err := f.Submit(0, i%2, 6, model.Time(2*i)); err != nil {
						t.Fatal(err)
					}
				}
				return f
			}
			straight := build()
			if _, err := straight.Step(2000); err != nil {
				t.Fatal(err)
			}
			half := build()
			if _, err := half.Step(47); err != nil { // refreshes at 0 and 30; 47 is mid-period with migrations behind it
				t.Fatal(err)
			}
			if half.Ledger().Migrations == 0 {
				t.Fatal("no migration before the snapshot — the checkpoint test would be vacuous")
			}
			snap, err := half.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			// Every migration left busy: its decision schedule lists them.
			if n := bytes.Count(snap, []byte(`"withdrawn":`)); n != 1 {
				t.Fatalf("%d withdrawn lists in the snapshot, want busy's decision schedule's alone", n)
			}
			resumed, err := fed.Restore([]string{"o0", "o1"}, specs, tc.policy, snap)
			if err != nil {
				t.Fatal(err)
			}
			if again, err := resumed.Snapshot(); err != nil || !bytes.Equal(again, snap) {
				t.Fatalf("the restored federation snapshots to other bytes (err %v)", err)
			}
			if _, err := resumed.Step(2000); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fingerprint(t, resumed), fingerprint(t, straight)) {
				t.Fatal("resumed migrating federation diverged from uninterrupted run")
			}
			if err := resumed.CheckConservation(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWithMigrationBudget pins the override helper's semantics.
func TestWithMigrationBudget(t *testing.T) {
	base := fed.Migrating{Inner: fed.RefPolicy{}, Budget: fed.DefaultMigrationBudget}
	if got := fed.WithMigrationBudget(base, 3).(fed.Migrating).Budget; got != 3 {
		t.Fatalf("positive override gave budget %d", got)
	}
	if got := fed.WithMigrationBudget(base, -1).(fed.Migrating).Budget; got != 0 {
		t.Fatalf("negative override gave budget %d, want 0 (disabled)", got)
	}
	if got := fed.WithMigrationBudget(base, 0).(fed.Migrating).Budget; got != fed.DefaultMigrationBudget {
		t.Fatalf("zero override gave budget %d, want the policy default", got)
	}
	if p := fed.WithMigrationBudget(fed.LeastLoaded{}, 5); p != (fed.LeastLoaded{}) {
		t.Fatalf("non-migrating policy rewrapped as %T", p)
	}
}

// TestPolicyByNameMigrateVariants: the wire names resolve to enabled
// migrating wrappers.
func TestPolicyByNameMigrateVariants(t *testing.T) {
	for name, inner := range map[string]string{
		"fedref-migrate":   "fedref",
		"fairness-migrate": "fairness",
	} {
		p, err := fed.PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, ok := p.(fed.Migrating)
		if !ok {
			t.Fatalf("%s resolved to %T", name, p)
		}
		if m.Name() != name || m.Inner.Name() != inner || m.Budget != fed.DefaultMigrationBudget {
			t.Fatalf("%s resolved to %s over %s with budget %d", name, m.Name(), m.Inner.Name(), m.Budget)
		}
	}
}
