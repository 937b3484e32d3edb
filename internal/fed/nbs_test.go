package fed_test

import (
	"testing"

	"repro/internal/fed"
)

// FedNBS's routing rule, unit-tested on hand-built exchanges: a fresh
// federation routes home, a saturated origin offloads to the idle
// member whose bargaining target its assignment lags, and a single
// member is the only choice.
func TestFedNbsRouteLedger(t *testing.T) {
	p := fed.NBSPolicy{}
	fresh := []fed.Summary{
		{Cluster: 0, Now: 0, Capacity: 2},
		{Cluster: 1, Now: 0, Capacity: 4},
	}
	zero := [][]int64{{0, 0}, {0, 0}}
	if got := p.RouteLedger(0, 0, fresh, zero); got != 0 {
		t.Fatalf("fresh federation routed away from home (got %d)", got)
	}
	// Origin 0 (capacity 2) has been assigned 80 units of work by time
	// 10 — far beyond the 20 it can complete — while cluster 1 (capacity
	// 4) sits idle: its NBS target is the whole pooled surplus.
	// d = [20, 0], C = 60, caps [20, 40] → x = [20, 40];
	// deficits x − assigned = [−60, 40].
	loaded := []fed.Summary{
		{Cluster: 0, Now: 10, Capacity: 2},
		{Cluster: 1, Now: 10, Capacity: 4},
	}
	routed := [][]int64{{80, 0}, {0, 0}}
	if got := p.RouteLedger(0, 0, loaded, routed); got != 1 {
		t.Fatalf("fednbs kept the job at the saturated origin (got %d)", got)
	}
	// One member: trivially home.
	if got := p.RouteLedger(0, 0, loaded[:1], [][]int64{{80}}); got != 0 {
		t.Fatalf("1-member federation routed to %d", got)
	}
}

// The bargaining targets respect individual rationality: a member is
// never routed away from below its standalone value. Here both members
// are saturated (no pooling surplus at all), so every target collapses
// to the disagreement point and the less-over-assigned origin keeps
// the job even though the peer has more capacity.
func TestFedNbsIndividualRationality(t *testing.T) {
	p := fed.NBSPolicy{}
	sums := []fed.Summary{
		{Cluster: 0, Now: 10, Capacity: 2},
		{Cluster: 1, Now: 10, Capacity: 4},
	}
	// Both drowning: demand 100 each against capacities 20 and 40.
	// d = [20, 40] = x (capacity bound everywhere, C = 60 = Σd);
	// deficits = [20−100, 40−100] — origin wins the tie on deficit.
	routed := [][]int64{{100, 0}, {0, 100}}
	if got := p.RouteLedger(0, 1, sums, routed); got != 1 {
		t.Fatalf("fednbs moved a job with no pooling surplus (got %d)", got)
	}
}

// A 1-member federation under FedNBS must reproduce its member's
// single-cluster run byte for byte, exactly as FedREF does — the
// differential anchor for the bargaining policy. The migrating
// composition must be inert with nowhere to migrate.
func TestOneMemberFedNbsMatchesSingleClusterRef(t *testing.T) {
	assertOneMemberMatchesSingleCluster(t, fed.NBSPolicy{}, 0, oneMemberSeeds)
	assertOneMemberMatchesSingleCluster(t, fed.Migrating{Inner: fed.NBSPolicy{}, Budget: fed.DefaultMigrationBudget}, 0, oneMemberSeeds/4)
}
