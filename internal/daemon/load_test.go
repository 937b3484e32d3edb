package daemon_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/model"
)

// loadFedCfg is the per-session configuration of the load test: a small
// two-cluster federation under the migrating federation-level Shapley
// router with stale gossip — the most stateful session kind the daemon
// serves (withdrawals, tombstones, exchange cache and migration ledger
// all in play).
func loadFedCfg(seed int64) daemon.SessionConfig {
	return daemon.SessionConfig{
		Kind:     daemon.KindFederation,
		OrgNames: []string{"alpha", "beta"},
		Policy:   "fedref-migrate",
		Clusters: []daemon.ClusterConfig{
			{Name: "busy", Alg: "directcontr", Machines: []int{1, 0}},
			{Name: "idle", Alg: "directcontr", Machines: []int{1, 2}},
		},
		Staleness:       25,
		MigrationBudget: 4,
		Seed:            seed,
	}
}

// TestSessionMigrationBudgetKnob: the wire config's MigrationBudget
// reaches the policy — a negative value disables the re-delegation
// pass entirely, reproducing the non-migrating run.
func TestSessionMigrationBudgetKnob(t *testing.T) {
	run := func(budget int) daemon.StateReply {
		cfg := loadFedCfg(3)
		cfg.MigrationBudget = budget
		m := daemon.NewManager()
		s, err := m.Create("k", cfg)
		if err != nil {
			t.Fatal(err)
		}
		var jobs []daemon.JobSubmission
		for j := 0; j < 16; j++ {
			jobs = append(jobs, daemon.JobSubmission{Cluster: 0, Org: j % 2, Size: 4, Release: timePtr(model.Time(3 * j))})
		}
		if _, err := s.Submit(jobs); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Advance(timePtr(400)); err != nil {
			t.Fatal(err)
		}
		return s.State()
	}
	if st := run(-1); st.Migrations != 0 {
		t.Fatalf("disabled budget still migrated %d jobs", st.Migrations)
	}
	if st := run(0); st.Migrations == 0 { // 0 keeps the policy default (8)
		t.Fatal("default budget migrated nothing on a saturated origin")
	}
}

// TestDaemonFederatedSessionLoad drives hundreds of concurrent
// federated sessions through the full create → submit → advance →
// checkpoint → restore → delete lifecycle — the north-star's
// "millions of users" direction scaled to a unit test. Run under -race
// in CI it doubles as the session-table locking check; here it also
// asserts liveness: every advance completes within a generous bound,
// so no session ever blocks behind the whole table.
func TestDaemonFederatedSessionLoad(t *testing.T) {
	sessions := 240
	if testing.Short() {
		sessions = 60
	}
	const workers = 24
	m := daemon.NewManager()
	var (
		wg         sync.WaitGroup
		maxAdvance atomic.Int64 // nanoseconds
		migrations atomic.Int64
	)
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				id := fmt.Sprintf("load-%d", i)
				s, err := m.Create(id, loadFedCfg(int64(i)))
				if err != nil {
					t.Errorf("create %s: %v", id, err)
					return
				}
				var jobs []daemon.JobSubmission
				for j := 0; j < 16; j++ {
					jobs = append(jobs, daemon.JobSubmission{
						Cluster: 0, Org: j % 2, Size: 4, Release: timePtr(model.Time(3 * j)),
					})
				}
				if _, err := s.Submit(jobs); err != nil {
					t.Errorf("submit %s: %v", id, err)
					return
				}
				for _, until := range []model.Time{30, 60, 120, 400} {
					begin := time.Now()
					if _, _, err := s.Advance(timePtr(until)); err != nil {
						t.Errorf("advance %s to %d: %v", id, until, err)
						return
					}
					if d := time.Since(begin).Nanoseconds(); d > maxAdvance.Load() {
						maxAdvance.Store(d) // racy max: any interleaving keeps a lower bound, enough for the assert
					}
				}
				before := s.State()
				snap, err := s.Checkpoint()
				if err != nil {
					t.Errorf("checkpoint %s: %v", id, err)
					return
				}
				if err := s.Restore(snap); err != nil {
					t.Errorf("restore %s: %v", id, err)
					return
				}
				if after := s.State(); !sameState(before, after) {
					t.Errorf("session %s state changed across checkpoint/restore", id)
					return
				}
				migrations.Add(before.Migrations)
				m.List() // concurrent listings share the table lock with create/delete
				if i%3 == 0 {
					if !m.Delete(id) {
						t.Errorf("delete %s reported missing", id)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < sessions; i++ {
		work <- i
	}
	close(work)
	wg.Wait()

	// Liveness: a single advance of a 16-job toy federation that takes
	// tens of seconds means sessions serialized behind a global lock.
	if got := time.Duration(maxAdvance.Load()); got > 20*time.Second {
		t.Fatalf("slowest advance took %v — session traffic is serializing", got)
	}
	// The workload is imbalanced by construction (every submission at
	// the 1-machine origin, a 3-machine idle peer): across hundreds of
	// sessions the migrating router must actually have re-delegated.
	if migrations.Load() == 0 {
		t.Fatal("no session migrated a single job — the load test exercises nothing")
	}
	// Table consistency after the storm: survivors are exactly the
	// non-deleted sessions, each listed once and retrievable.
	want := 0
	for i := 0; i < sessions; i++ {
		if i%3 != 0 {
			want++
		}
	}
	seen := make(map[string]bool)
	for _, s := range m.List() {
		if seen[s.ID()] {
			t.Fatalf("session %q listed twice", s.ID())
		}
		seen[s.ID()] = true
		if _, ok := m.Get(s.ID()); !ok {
			t.Fatalf("listed session %q not retrievable", s.ID())
		}
	}
	if len(seen) != want {
		t.Fatalf("%d sessions survived, want %d", len(seen), want)
	}
}
