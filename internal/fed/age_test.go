//go:build !race

package fed_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/fed"
)

// This file holds the one fed test that times the wall clock. It is
// built without the race detector only: under it, the ratio it bounds
// would time the detector's own bookkeeping, and a run takes ten times
// as long. CI runs it in a step of its own.

// TestMigratingRoundCostIsFlatWithAge: a migrating federation's round
// costs about the same young and old. It times the last 32 rounds of
// gatedStream under fednbs-migrate, run from scratch to 64 and to 3 200
// rounds, as the minimum over several runs with the two ages
// interleaved so that both see the same load. A migration pass scans
// the jobs its members hold queued, not their history; when it walked
// every job ever fed, the old round cost 11 to 14× the young one. What
// is left, 1.4 to 1.9× in a 2-core container, is the growth of the
// per-job logs every session appends to (engine decision logs and job
// lists, the federation's sequence and origin columns): several of them
// outgrow their arrays within those 32 rounds, and the fednbs round
// without migration shows the same. The bound, 3×, sits above that and
// its noise and far below a scan of the history. (A restored federation
// would not do: its first appends copy every column the checkpoint
// sized exactly.) Timed, so skipped under -short.
func TestMigratingRoundCostIsFlatWithAge(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a federation for 3 200 rounds and times it")
	}
	const tail, tries = 32, 5
	policy := fed.Migrating{Inner: fed.NBSPolicy{}, Budget: fed.DefaultMigrationBudget}
	// lastRounds is one run from scratch: the time of its last tail rounds.
	lastRounds := func(stream [][]fed.SourceJob, rounds int) time.Duration {
		f := gatedFederation(t, policy, gatedStaleness, true, stream, nil)
		for r := 0; r < rounds-tail; r++ {
			gatedRound(t, f, stream, r)
		}
		runtime.GC()
		start := time.Now()
		for r := rounds - tail; r < rounds; r++ {
			gatedRound(t, f, stream, r)
		}
		return time.Since(start)
	}
	stream := gatedStream(3200)
	young, old := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < tries; i++ {
		young = min(young, lastRounds(stream, 64)/tail)
		old = min(old, lastRounds(stream, 3200)/tail)
	}
	ratio := float64(old) / float64(young)
	t.Logf("fednbs-migrate round: %v at 64 rounds, %v at 3 200 (%.2f×)", young, old, ratio)
	if ratio > 3 {
		t.Errorf("a round at 3 200 rounds costs %.2f× the round at 64 (%v against %v); the bound is 3×", ratio, old, young)
	}
}
