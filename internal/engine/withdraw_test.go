package engine

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
)

// The withdrawal acceptance criterion: for every algorithm, withdrawing
// a queued job mid-run leaves the engine in a state that (a) snapshots
// byte-identically across a restore — the withdrawn tombstone is part
// of the deterministic state — and (b) replays the identical future
// schedule whether or not the run was interrupted at the withdrawal
// point. The withdrawn job must never start, and Waiting must not count
// it. At every stop Queued is the brute-force set — the fed jobs neither
// started nor withdrawn — and as long as Waiting.
func TestWithdrawCheckpointDeterminism(t *testing.T) {
	for _, alg := range steppers() {
		alg := alg
		t.Run(alg.Name(), func(t *testing.T) {
			exercised := false
			for seed := int64(0); seed < 6; seed++ {
				r := rand.New(rand.NewSource(4200 + seed))
				inst := testInstance(r, 2+r.Intn(3))
				horizon := inst.Horizon() + 2
				// testInstance releases everything by t=12 and Horizon()
				// is a drain bound, so pause early enough that some jobs
				// are still queued or pending.
				mid := model.Time(4)

				// checkQueued holds e.Queued to the fed jobs that have
				// neither started nor been withdrawn, by ascending ID.
				checkQueued := func(e *Engine, withdrawn ...int) {
					t.Helper()
					gone := make(map[int]bool)
					for _, s := range e.Decisions() {
						gone[s.Job] = true
					}
					for _, id := range withdrawn {
						gone[id] = true
					}
					var want []int
					for id := range e.Instance().Jobs {
						if !gone[id] {
							want = append(want, id)
						}
					}
					got := e.Queued([]int{-1})[1:] // appends to what it is given
					if !slices.Equal(got, want) || len(got) != e.Waiting() {
						t.Fatalf("seed %d at %d: Queued %v, want %v (Waiting %d)", seed, e.Now(), got, want, e.Waiting())
					}
				}

				// notStarted picks the lowest fed job with no decision yet.
				notStarted := func(e *Engine) int {
					started := make(map[int]bool)
					for _, s := range e.Decisions() {
						started[s.Job] = true
					}
					for id := range e.Instance().Jobs {
						if !started[id] {
							return id
						}
					}
					return -1
				}

				straight := New(alg, clone(inst), seed)
				if _, err := straight.Step(mid); err != nil {
					t.Fatal(err)
				}
				id := notStarted(straight)
				if id < 0 {
					continue // everything already started by mid — try another seed
				}
				exercised = true
				checkQueued(straight)
				waitingBefore := straight.Waiting()
				if err := straight.Withdraw(id); err != nil {
					t.Fatalf("seed %d: withdraw job %d: %v", seed, id, err)
				}
				checkQueued(straight, id)
				if got := straight.Waiting(); got != waitingBefore-1 {
					t.Fatalf("seed %d: waiting %d after withdraw, want %d", seed, got, waitingBefore-1)
				}
				if straight.Withdrawn() != 1 {
					t.Fatalf("seed %d: withdrawn count %d, want 1", seed, straight.Withdrawn())
				}
				if err := straight.Withdraw(id); err == nil {
					t.Fatalf("seed %d: double withdraw accepted", seed)
				}
				if err := straight.Withdraw(len(inst.Jobs) + 5); err == nil {
					t.Fatalf("seed %d: unknown job withdrawn", seed)
				}
				if started := straight.Decisions(); len(started) > 0 {
					if err := straight.Withdraw(started[0].Job); err == nil {
						t.Fatalf("seed %d: started job withdrawn", seed)
					}
				}

				// Interrupted twin: same prefix, withdraw, snapshot,
				// restore, and the snapshot of the restored engine must be
				// byte-identical — the tombstone survives serialization.
				paused := New(alg, clone(inst), seed)
				if _, err := paused.Step(mid); err != nil {
					t.Fatal(err)
				}
				if err := paused.Withdraw(id); err != nil {
					t.Fatal(err)
				}
				snap, err := paused.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := Restore(alg, snap)
				if err != nil {
					t.Fatalf("seed %d: restore after withdraw: %v", seed, err)
				}
				if resumed.Withdrawn() != 1 {
					t.Fatalf("seed %d: restored withdrawn count %d, want 1", seed, resumed.Withdrawn())
				}
				checkQueued(resumed, id)
				resnap, err := resumed.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(snap, resnap) {
					t.Fatalf("seed %d: snapshot not byte-identical across restore after withdraw", seed)
				}

				if _, err := straight.Step(horizon); err != nil {
					t.Fatal(err)
				}
				if _, err := resumed.Step(horizon); err != nil {
					t.Fatal(err)
				}
				checkQueued(straight, id)
				checkQueued(resumed, id)
				assertSameRun(t, "resumed-after-withdraw vs uninterrupted",
					straight.Result(), resumed.Result(), straight.Decisions(), resumed.Decisions())
				for _, s := range straight.Decisions() {
					if s.Job == id {
						t.Fatalf("seed %d: withdrawn job %d started at %d", seed, id, s.At)
					}
				}
			}
			if !exercised {
				t.Fatal("no seed left a queued job at mid-run — fixture too small")
			}
		})
	}
}
