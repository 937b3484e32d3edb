package fed_test

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fed"
	"repro/internal/model"
	"repro/internal/shapley"
)

// randFedGame draws a small federation game with random demand and
// capacity columns.
func randFedGame(r *rand.Rand, k int) *fed.Game {
	demand := make([]int64, k)
	capacity := make([]int64, k)
	for c := 0; c < k; c++ {
		demand[c] = int64(r.Intn(400))
		capacity[c] = int64(1 + r.Intn(6))
	}
	return &fed.Game{Demand: demand, Cap: capacity}
}

// Efficiency on the federation-level game: the members' exact Shapley
// contributions sum to the grand coalition's completed-work value, at
// every instant — the paper's budget-balance axiom lifted to clusters.
func TestFedGameAxiomEfficiency(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(6000 + seed))
		k := 2 + r.Intn(5)
		g := randFedGame(r, k)
		for _, at := range []model.Time{0, 1, 17, 100, 100000} {
			phi := shapley.ExactAt(g, at)
			var sum float64
			for _, p := range phi {
				sum += p
			}
			want := float64(g.ValueAt(model.Grand(k), at))
			if math.Abs(sum-want) > 1e-9*math.Max(1, want) {
				t.Fatalf("seed %d t=%d: Σφ = %v, v(grand) = %v", seed, at, sum, want)
			}
		}
	}
}

// Symmetry on the federation-level game: two clusters with identical
// demand and capacity are interchangeable in every coalition, so their
// Shapley contributions are equal.
func TestFedGameAxiomSymmetry(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(6100 + seed))
		k := 3 + r.Intn(4)
		g := randFedGame(r, k)
		i, j := 0, 1+r.Intn(k-1)
		g.Demand[j] = g.Demand[i]
		g.Cap[j] = g.Cap[i]
		for _, at := range []model.Time{0, 5, 50, 5000} {
			phi := shapley.ExactAt(g, at)
			if math.Abs(phi[i]-phi[j]) > 1e-9 {
				t.Fatalf("seed %d t=%d: symmetric clusters differ: φ[%d]=%v φ[%d]=%v",
					seed, at, i, phi[i], j, phi[j])
			}
		}
	}
}

// Once t is large enough that every coalition could have finished its
// own demand, the game is additive and each member's contribution is
// exactly its own demand (the dummy/additivity regime).
func TestFedGameDemandBoundIsAdditive(t *testing.T) {
	r := rand.New(rand.NewSource(6200))
	g := randFedGame(r, 4)
	phi := shapley.ExactAt(g, 1<<30)
	for c := range phi {
		if math.Abs(phi[c]-float64(g.Demand[c])) > 1e-9 {
			t.Fatalf("demand-bound regime: φ[%d]=%v, demand %d", c, phi[c], g.Demand[c])
		}
	}
}

// The axioms must also hold on a game derived from a live federation's
// exchanged state, not only on synthetic columns.
func TestFedGameAxiomsOnLiveLedger(t *testing.T) {
	f, _ := buildFederation(t, []string{"directcontr"}, fed.RefPolicy{}, 23)
	if _, err := f.Step(6000); err != nil {
		t.Fatal(err)
	}
	l := f.Ledger()
	k := len(f.Members())
	demand := make([]int64, k)
	capacity := make([]int64, k)
	for c, m := range f.Members() {
		capacity[c] = m.Engine().Instance().TotalCapacity()
		for _, w := range l.RoutedWork[c] {
			demand[c] += w
		}
	}
	g := &fed.Game{Demand: demand, Cap: capacity}
	phi := shapley.ExactAt(g, f.Now())
	var sum float64
	for _, p := range phi {
		sum += p
	}
	want := float64(g.ValueAt(model.Grand(k), f.Now()))
	if math.Abs(sum-want) > 1e-6*math.Max(1, want) {
		t.Fatalf("live ledger game: Σφ = %v, v(grand) = %v", sum, want)
	}
	if want == 0 {
		t.Fatal("live federation produced a zero-value game — scenario too small to test anything")
	}
}

// FedREF's routing rule, unit-tested on hand-built exchanges: a fresh
// federation routes home, a saturated origin offloads to the idle
// member with spare Shapley entitlement, and a single member is the
// only choice.
func TestFedRefRouteLedger(t *testing.T) {
	p := fed.RefPolicy{}
	fresh := []fed.Summary{
		{Cluster: 0, Now: 0, Capacity: 2},
		{Cluster: 1, Now: 0, Capacity: 4},
	}
	zero := [][]int64{{0, 0}, {0, 0}}
	if got := p.RouteLedger(0, 0, fresh, zero); got != 0 {
		t.Fatalf("fresh federation routed away from home (got %d)", got)
	}
	// Origin 0 (capacity 2) has been assigned 80 units of work by time
	// 10 — far beyond what it can complete — while cluster 1 (capacity
	// 4) sits idle: the coalition surplus belongs to cluster 1.
	loaded := []fed.Summary{
		{Cluster: 0, Now: 10, Capacity: 2},
		{Cluster: 1, Now: 10, Capacity: 4},
	}
	routed := [][]int64{{80, 0}, {0, 0}}
	if got := p.RouteLedger(0, 0, loaded, routed); got != 1 {
		t.Fatalf("fedref kept the job at the saturated origin (got %d)", got)
	}
	// One member: trivially home.
	if got := p.RouteLedger(0, 0, loaded[:1], [][]int64{{80}}); got != 0 {
		t.Fatalf("1-member federation routed to %d", got)
	}
}

// A 1-member federation under FedREF must reproduce single-cluster REF
// byte for byte: identical decisions, ψ and exact φ — the differential
// anchor tying the federation-level game back to the paper's
// single-cluster algorithm.
func TestOneMemberFedRefMatchesSingleClusterRef(t *testing.T) {
	assertOneMemberMatchesRef(t, fed.RefPolicy{}, 0)
}

// assertOneMemberMatchesRef runs a 1-member federation under the given
// policy/staleness and requires it to reproduce a standalone
// single-cluster REF engine byte for byte. Shared with the migration
// differential: with one member there is nowhere to migrate, so an
// enabled migration pass must be inert.
func assertOneMemberMatchesRef(t *testing.T, policy fed.Policy, staleness model.Time) {
	t.Helper()
	const horizon = 500
	r := rand.New(rand.NewSource(77))
	jobs := make([]model.Job, 60)
	for i := range jobs {
		jobs[i] = model.Job{
			Org:     r.Intn(3),
			Size:    model.Time(1 + r.Intn(9)),
			Release: model.Time(r.Intn(horizon / 2)),
		}
	}
	// Pre-sort by release so federation sequence numbers equal the
	// standalone engine's feed order.
	for i := 1; i < len(jobs); i++ {
		for j := i; j > 0 && jobs[j].Release < jobs[j-1].Release; j-- {
			jobs[j], jobs[j-1] = jobs[j-1], jobs[j]
		}
	}
	machines := []int{2, 1, 1}

	specs := []fed.ClusterSpec{{Name: "solo", Alg: core.RefAlgorithm{}, Machines: machines}}
	f, err := fed.New([]string{"o0", "o1", "o2"}, specs, policy, 5)
	if err != nil {
		t.Fatal(err)
	}
	f.SetStaleness(staleness)
	for _, j := range jobs {
		if _, err := f.Submit(0, j.Org, j.Size, j.Release); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Step(horizon); err != nil {
		t.Fatal(err)
	}
	if err := f.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if got := f.Ledger().Migrations; got != 0 {
		t.Fatalf("1-member federation migrated %d jobs", got)
	}

	orgs := make([]model.Org, len(machines))
	for i, m := range machines {
		orgs[i] = model.Org{Name: fmt.Sprintf("o%d", i), Machines: m}
	}
	inst, err := model.NewInstance(orgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(core.RefAlgorithm{}, inst, 5)
	if _, err := eng.Feed(jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Step(horizon); err != nil {
		t.Fatal(err)
	}

	fedDecs := f.Decisions()
	engDecs := eng.Decisions()
	if len(fedDecs) == 0 {
		t.Fatal("federated run made no decisions")
	}
	if len(fedDecs) != len(engDecs) {
		t.Fatalf("federation made %d decisions, single-cluster REF %d", len(fedDecs), len(engDecs))
	}
	for i := range fedDecs {
		fd, ed := fedDecs[i], engDecs[i]
		if fd.Cluster != 0 || fd.Seq != int64(ed.Job) || fd.Org != ed.Org || fd.Machine != ed.Machine || fd.At != ed.At {
			t.Fatalf("decision %d differs: federation %+v, engine %+v", i, fd, ed)
		}
	}
	fedRes := f.Members()[0].Engine().Result()
	engRes := eng.Result()
	a, err := json.Marshal(fedRes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(engRes)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("1-member FedREF result diverged from single-cluster REF:\n%s\nvs\n%s", a, b)
	}
}
