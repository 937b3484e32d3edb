package fed_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/fed"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// testScenario is a small saturated federated workload: 3 clusters,
// 3 orgs, staggered diurnal peaks, heterogeneous sites.
func testScenario() gen.FedScenario {
	s := gen.DefaultFedScenario()
	s.Base = s.Base.Scale(0.12)
	return s
}

// algFactories builds fresh per-cluster algorithms by short name —
// fresh values per federation so no state is shared across runs.
func algFactory(name string) core.StepperAlgorithm {
	switch name {
	case "ref":
		return core.RefAlgorithm{}
	case "rand":
		return core.RandAlgorithm{Samples: 5}
	case "directcontr":
		return core.DirectContrAlgorithm()
	case "nbs":
		return core.NbsAlgorithm{}
	case "fairshare":
		return core.FromPolicy("FairShare", func() sim.Policy { return baseline.NewFairShare() })
	default:
		panic("unknown test algorithm " + name)
	}
}

// buildFederation wires a generated workload into a fresh federation
// and submits every cluster's stream upfront (arrivals stay pending
// until their release instants).
func buildFederation(t testing.TB, algs []string, policy fed.Policy, seed int64) (*fed.Federation, *gen.FedWorkload) {
	t.Helper()
	w, err := testScenario().Generate(6000, stats.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]fed.ClusterSpec, len(w.Machines))
	for c := range specs {
		specs[c] = fed.ClusterSpec{
			Name:     fmt.Sprintf("site%d", c),
			Alg:      algFactory(algs[c%len(algs)]),
			Machines: w.Machines[c],
		}
	}
	f, err := fed.New(w.Orgs, specs, policy, seed)
	if err != nil {
		t.Fatal(err)
	}
	for c, js := range w.Jobs {
		for _, j := range js {
			if _, err := f.Submit(c, j.Org, j.Size, j.Release); err != nil {
				t.Fatal(err)
			}
		}
	}
	return f, w
}

// fingerprint serializes everything observable about a federation at
// its current clock: the full decision log, the synced ledger, and each
// member's ψ vector.
func fingerprint(t testing.TB, f *fed.Federation) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(f.Decisions()); err != nil {
		t.Fatal(err)
	}
	// Printed, not encoded: only the ledger's history has JSON keys.
	fmt.Fprintf(&buf, "%+v\n", *f.Ledger())
	for _, m := range f.Members() {
		if err := enc.Encode(m.Engine().Result().Psi); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestFederationDeterminism: a federated run is a pure function of its
// seed — rerunning the identical configuration yields byte-identical
// decisions, ledger and ψ, for every delegation policy and a mixed
// per-cluster algorithm roster.
func TestFederationDeterminism(t *testing.T) {
	algs := []string{"ref", "directcontr", "fairshare"}
	for _, policy := range []fed.Policy{
		fed.LocalOnly{}, fed.LeastLoaded{}, fed.FairnessAware{},
		fed.FairnessCapacity{}, fed.FairnessDecayed{}, fed.RefPolicy{},
		fed.Migrating{Inner: fed.RefPolicy{}, Budget: fed.DefaultMigrationBudget},
		fed.Migrating{Inner: fed.FairnessAware{}, Budget: fed.DefaultMigrationBudget},
	} {
		t.Run(policy.Name(), func(t *testing.T) {
			f1, _ := buildFederation(t, algs, policy, 11)
			f2, _ := buildFederation(t, algs, policy, 11)
			if _, err := f1.Step(6000); err != nil {
				t.Fatal(err)
			}
			if _, err := f2.Step(6000); err != nil {
				t.Fatal(err)
			}
			if got, want := fingerprint(t, f1), fingerprint(t, f2); !bytes.Equal(got, want) {
				t.Fatal("two identically configured federated runs diverged")
			}
			if len(f1.Decisions()) == 0 {
				t.Fatal("federated run made no decisions — scenario too small to test anything")
			}
		})
	}
}

// TestFederationCheckpointRestore: stopping a federated run mid-flight,
// serializing it, and resuming in a fresh federation continues
// byte-identically with an uninterrupted run — across every policy,
// with REF and RAND members exercising multi-cluster and RNG-bearing
// engine checkpoints.
func TestFederationCheckpointRestore(t *testing.T) {
	algs := []string{"ref", "rand", "directcontr"}
	for _, policy := range []fed.Policy{
		fed.LocalOnly{}, fed.LeastLoaded{}, fed.FairnessAware{}, fed.RefPolicy{},
		fed.Migrating{Inner: fed.RefPolicy{}, Budget: fed.DefaultMigrationBudget},
	} {
		t.Run(policy.Name(), func(t *testing.T) {
			straight, w := buildFederation(t, algs, policy, 17)
			if _, err := straight.Step(6000); err != nil {
				t.Fatal(err)
			}

			half, _ := buildFederation(t, algs, policy, 17)
			if _, err := half.Step(3000); err != nil {
				t.Fatal(err)
			}
			snap, err := half.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			specs := make([]fed.ClusterSpec, len(w.Machines))
			for c := range specs {
				specs[c] = fed.ClusterSpec{
					Name:     fmt.Sprintf("site%d", c),
					Alg:      algFactory(algs[c%len(algs)]),
					Machines: w.Machines[c],
				}
			}
			resumed, err := fed.Restore(w.Orgs, specs, policy, snap)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Now() != 3000 {
				t.Fatalf("resumed clock %d, want 3000", resumed.Now())
			}
			if _, err := resumed.Step(6000); err != nil {
				t.Fatal(err)
			}
			if got, want := fingerprint(t, resumed), fingerprint(t, straight); !bytes.Equal(got, want) {
				t.Fatal("resumed federation diverged from uninterrupted run")
			}
		})
	}
}

// TestFederationRestoreRejectsMismatch: a snapshot only restores into
// the configuration that captured it.
func TestFederationRestoreRejectsMismatch(t *testing.T) {
	f, w := buildFederation(t, []string{"directcontr"}, fed.LeastLoaded{}, 3)
	if _, err := f.Step(1000); err != nil {
		t.Fatal(err)
	}
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	goodSpecs := func() []fed.ClusterSpec {
		specs := make([]fed.ClusterSpec, len(w.Machines))
		for c := range specs {
			specs[c] = fed.ClusterSpec{
				Name:     fmt.Sprintf("site%d", c),
				Alg:      algFactory("directcontr"),
				Machines: w.Machines[c],
			}
		}
		return specs
	}
	if _, err := fed.Restore(w.Orgs, goodSpecs(), fed.LocalOnly{}, snap); err == nil {
		t.Error("restore with a different policy accepted")
	}
	if _, err := fed.Restore(w.Orgs[:len(w.Orgs)-1], goodSpecs(), fed.LeastLoaded{}, snap); err == nil {
		t.Error("restore with a different org universe accepted")
	}
	bad := goodSpecs()
	bad[0].Name = "imposter"
	if _, err := fed.Restore(w.Orgs, bad, fed.LeastLoaded{}, snap); err == nil {
		t.Error("restore with a renamed cluster accepted")
	}
	bad = goodSpecs()
	bad[1].Machines = append([]int(nil), bad[1].Machines...)
	bad[1].Machines[0]++
	if _, err := fed.Restore(w.Orgs, bad, fed.LeastLoaded{}, snap); err == nil {
		t.Error("restore with a different machine grid accepted")
	}
	// The member engine snapshots are the one record of the machine
	// pools: the per-member "machines" rows older builds wrote next to
	// them are not read, so rows rewritten to the restoring grid do not
	// get a foreign snapshot in, nor keep the capturing grid's out.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(snap, &doc); err != nil {
		t.Fatal(err)
	}
	var rowed []map[string]json.RawMessage
	if err := json.Unmarshal(doc["members"], &rowed); err != nil {
		t.Fatal(err)
	}
	for c := range rowed {
		if rowed[c]["machines"], err = json.Marshal(bad[c].Machines); err != nil {
			t.Fatal(err)
		}
	}
	if doc["members"], err = json.Marshal(rowed); err != nil {
		t.Fatal(err)
	}
	forged, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Restore(w.Orgs, bad, fed.LeastLoaded{}, forged); err == nil {
		t.Error("restore with a different machine grid accepted behind rewritten machines rows")
	}
	if _, err := fed.Restore(w.Orgs, goodSpecs(), fed.LeastLoaded{}, forged); err != nil {
		t.Errorf("restore under the capturing grid refused over ignored machines rows: %v", err)
	}
	if _, err := fed.Restore(w.Orgs, goodSpecs(), fed.LeastLoaded{}, snap[:len(snap)/2]); err == nil {
		t.Error("restore from truncated snapshot accepted")
	}
	// A structurally valid checkpoint with a gutted ledger must fail at
	// Restore, not panic at the next Step.
	var cp map[string]json.RawMessage
	if err := json.Unmarshal(snap, &cp); err != nil {
		t.Fatal(err)
	}
	cp["ledger"] = json.RawMessage(`{}`)
	gutted, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Restore(w.Orgs, goodSpecs(), fed.LeastLoaded{}, gutted); err == nil {
		t.Error("restore with an empty ledger accepted")
	}
	// Two federation layouts restore, 4 and 5: the version-3 document an
	// older build wrote is refused by version, and so is a version-4 one
	// with the cursor of a job source the federation pulled itself —
	// restored without the block, the run would go on without the rest of
	// its stream.
	v3 := bytes.Replace(snap, []byte(`{"version":6,`), []byte(`{"version":3,`), 1)
	if _, err := fed.Restore(w.Orgs, goodSpecs(), fed.LeastLoaded{}, v3); err == nil || !strings.Contains(err.Error(), "checkpoint version 3, want 4 to 6") {
		t.Errorf("version-3 checkpoint: %v", err)
	}
	pulled := bytes.Replace(snap, []byte(`{"version":6,`), []byte(`{"version":4,"source":{"cursor":9,"window":4,"done":true},`), 1)
	if _, err := fed.Restore(w.Orgs, goodSpecs(), fed.LeastLoaded{}, pulled); err == nil || !strings.Contains(err.Error(), "SubmitThrough") {
		t.Errorf("checkpoint with a source block: %v", err)
	}
	// Restore ends on the conservation law and on a decision order that
	// spends each member's log exactly: what the parts of a document say
	// together is checked at the door, not by a post-run audit. (The
	// ledger and sequence rows restored before.)
	var clean fed.Checkpoint
	if err := json.Unmarshal(snap, &clean); err != nil || len(clean.Order) < 2 || clean.Members[0].SeqOf[1] < 0 {
		t.Fatalf("the snapshot has %d decisions (err %v)", len(clean.Order), err)
	}
	other := (clean.Order[0] + 1) % len(clean.Members)
	for name, doctor := range map[string]func(*fed.Checkpoint){
		"sequence number held twice":        func(cp *fed.Checkpoint) { cp.Members[0].SeqOf[0] = cp.Members[0].SeqOf[1] },
		"sequence number never handed out":  func(cp *fed.Checkpoint) { cp.Members[0].SeqOf[0] = cp.Ledger.Submitted },
		"tombstone without a withdrawal":    func(cp *fed.Checkpoint) { cp.Members[0].SeqOf[1], cp.Members[0].OriginOf[1] = -1, -1 },
		"submitted count off by one":        func(cp *fed.Checkpoint) { cp.Ledger.Submitted++ },
		"clock the members do not stand at": func(cp *fed.Checkpoint) { cp.Now = 0 },
		"pending job dropped":               func(cp *fed.Checkpoint) { cp.Pending = cp.Pending[1:] },
		"migration of a cluster to itself":  func(cp *fed.Checkpoint) { cp.Ledger.Migrated[0][0] = 1 },
		"decision order cut short":          func(cp *fed.Checkpoint) { cp.Order = cp.Order[1:] },
		"decision order one too long":       func(cp *fed.Checkpoint) { cp.Order = append(cp.Order, cp.Order[0]) },
		"decision order of another log":     func(cp *fed.Checkpoint) { cp.Order[0] = other },
		"decision order with no such log":   func(cp *fed.Checkpoint) { cp.Order[0] = len(cp.Members) },
	} {
		var cp fed.Checkpoint
		if err := json.Unmarshal(snap, &cp); err != nil {
			t.Fatal(err)
		}
		doctor(&cp)
		bent, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fed.Restore(w.Orgs, goodSpecs(), fed.LeastLoaded{}, bent); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The plane's totals against what the members hold: one more job
	// admitted (and released — the plane's own law holds) than was fed.
	gated := parentCkptFederation(t, true)
	if _, err := gated.Step(parentCkptAt); err != nil {
		t.Fatal(err)
	}
	gatedSnap, err := gated.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var gcp fed.Checkpoint
	var plane ctrl.Checkpoint
	if err := json.Unmarshal(gatedSnap, &gcp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gcp.Ctrl, &plane); err != nil {
		t.Fatal(err)
	}
	plane.Stats.Released[0]++
	plane.Stats.Admitted[0]++
	if gcp.Ctrl, err = json.Marshal(plane); err != nil {
		t.Fatal(err)
	}
	bumped, err := json.Marshal(gcp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Restore(parentCkptOrgs, parentCkptSpecs(), parentCkptPolicy(), gatedSnap); err != nil {
		t.Fatalf("the gated snapshot does not restore: %v", err)
	}
	if _, err := fed.Restore(parentCkptOrgs, parentCkptSpecs(), parentCkptPolicy(), bumped); err == nil || !strings.Contains(err.Error(), "admitted") {
		t.Errorf("plane counting a job the members do not hold: %v", err)
	}
	// A pending job is released into the code a submitted one is, and is
	// held to the same checks (FuzzSessionRestore's finding: organization
	// 99 restored, and indexed past the admission counters on release).
	late, _ := buildFederation(t, []string{"directcontr"}, fed.LeastLoaded{}, 3)
	lateSnap, err := late.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	stray := bytes.Replace(lateSnap, []byte(`"org":1,`), []byte(`"org":99,`), 1)
	if _, err := fed.Restore(w.Orgs, goodSpecs(), fed.LeastLoaded{}, stray); err == nil || !strings.Contains(err.Error(), "pending job") {
		t.Errorf("pending job of an unknown organization: %v", err)
	}
	// The cached exchange is held to the shape summaries() gives it:
	// policies index its per-organization vectors without looking. (Its
	// cluster and org_capacity are no longer stored to be bent:
	// daemon.TestRestoreIgnoresDerivedCopies.)
	stale, _ := buildFederation(t, []string{"directcontr"}, fed.FairnessAware{}, 3)
	stale.SetStaleness(5000)
	if _, err := stale.Step(1000); err != nil {
		t.Fatal(err)
	}
	if snap, err = stale.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Restore(w.Orgs, goodSpecs(), fed.FairnessAware{}, snap); err != nil {
		t.Fatalf("stale snapshot does not restore: %v", err)
	}
	var staleDoc struct {
		ExSums []fed.Summary `json:"ex_sums"`
	}
	if err := json.Unmarshal(snap, &staleDoc); err != nil || len(staleDoc.ExSums) != len(w.Machines) {
		t.Fatalf("stale snapshot caches %d summaries (%v)", len(staleDoc.ExSums), err)
	}
	for name, edit := range map[string]func(*fed.Summary){
		"psi": func(s *fed.Summary) { s.Psi = s.Psi[1:] },
		"phi": func(s *fed.Summary) { s.Phi = []float64{1} },
	} {
		sums := append([]fed.Summary(nil), staleDoc.ExSums...)
		edit(&sums[1])
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(snap, &doc); err != nil {
			t.Fatal(err)
		}
		if doc["ex_sums"], err = json.Marshal(sums); err != nil {
			t.Fatal(err)
		}
		bent, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fed.Restore(w.Orgs, goodSpecs(), fed.FairnessAware{}, bent); err == nil || !strings.Contains(err.Error(), "exchange summary 1") {
			t.Errorf("exchange summary with a bent %s: %v", name, err)
		}
	}
	if snap, err = f.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Admission belongs to the federation, in front of routing: a member
	// snapshot wrapped in the envelope a gated engine once wrote is
	// refused — engines run ungated.
	if err := json.Unmarshal(snap, &cp); err != nil {
		t.Fatal(err)
	}
	var members []map[string]json.RawMessage
	if err := json.Unmarshal(cp["members"], &members); err != nil {
		t.Fatal(err)
	}
	members[0]["engine"] = json.RawMessage(`{"gate_version":1,"admission":{"policy":"always"},"ctrl":{},"core":` + string(members[0]["engine"]) + `}`)
	if cp["members"], err = json.Marshal(members); err != nil {
		t.Fatal(err)
	}
	wrapped, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Restore(w.Orgs, goodSpecs(), fed.LeastLoaded{}, wrapped); err == nil || !strings.Contains(err.Error(), "gate envelope") {
		t.Errorf("gated member snapshot: %v", err)
	}
}

// TestFederationConservation: under every delegation policy, total
// executed units are conserved — every offloaded job runs exactly once,
// the routed counts add up, and ledger totals match the engines' own ψ
// accounting. The run is drained past every job's completion so total
// executed work must equal total submitted work.
func TestFederationConservation(t *testing.T) {
	for _, policy := range []fed.Policy{
		fed.LocalOnly{}, fed.LeastLoaded{}, fed.FairnessAware{},
		fed.FairnessCapacity{}, fed.FairnessDecayed{}, fed.RefPolicy{},
		fed.Migrating{Inner: fed.RefPolicy{}, Budget: fed.DefaultMigrationBudget},
		fed.Migrating{Inner: fed.FairnessAware{}, Budget: fed.DefaultMigrationBudget},
	} {
		t.Run(policy.Name(), func(t *testing.T) {
			f, w := buildFederation(t, []string{"directcontr", "fairshare"}, policy, 29)
			var totalWork, maxRelease model.Time
			for _, js := range w.Jobs {
				for _, j := range js {
					totalWork += j.Size
					if j.Release > maxRelease {
						maxRelease = j.Release
					}
				}
			}
			// Horizon by which any greedy schedule of any split has
			// certainly finished everything.
			if _, err := f.Step(maxRelease + totalWork); err != nil {
				t.Fatal(err)
			}
			if err := f.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			if f.PendingCount() != 0 {
				t.Fatalf("%d jobs still pending after full drain", f.PendingCount())
			}
			l := f.Ledger()
			if got := l.TotalExecuted(); got != int64(totalWork) {
				t.Fatalf("executed %d unit slots, submitted %d", got, totalWork)
			}
			if got, want := int64(len(f.Decisions())), l.Submitted; got != want {
				t.Fatalf("%d decisions for %d submitted jobs", got, want)
			}
			// Every sequence number started exactly once.
			seen := make(map[int64]int)
			for _, d := range f.Decisions() {
				seen[d.Seq]++
			}
			for seq, n := range seen {
				if n != 1 {
					t.Fatalf("job %d started %d times", seq, n)
				}
			}
			// Ledger ψ columns must sum to the federation-wide vector.
			fedPsi := l.FederationPsi()
			var fromClusters int64
			for c := range l.Psi {
				for _, v := range l.Psi[c] {
					fromClusters += v
				}
			}
			var fromFed int64
			for _, v := range fedPsi {
				fromFed += v
			}
			if fromClusters != fromFed || fromFed != l.FederationValue() {
				t.Fatalf("ψ totals disagree: clusters %d, federation %d, value %d",
					fromClusters, fromFed, l.FederationValue())
			}
		})
	}
}

// TestFederationWideMetrics: the ledger's federation-wide ψ plugs
// straight into internal/metrics, and the local-only baseline gives the
// reference vector a delegating policy is compared against.
func TestFederationWideMetrics(t *testing.T) {
	run := func(policy fed.Policy) *fed.Ledger {
		f, _ := buildFederation(t, []string{"directcontr"}, policy, 41)
		if _, err := f.Step(12000); err != nil {
			t.Fatal(err)
		}
		return f.Ledger()
	}
	local := run(fed.LocalOnly{})
	balanced := run(fed.LeastLoaded{})
	if balanced.Offloaded() == 0 {
		t.Fatal("least-loaded policy never offloaded on a skewed scenario")
	}
	if local.Offloaded() != 0 {
		t.Fatal("local-only policy offloaded jobs")
	}
	d := metrics.DeltaPsi(balanced.FederationPsi(), local.FederationPsi())
	perUnit := metrics.UnfairnessPerUnit(balanced.FederationPsi(), local.FederationPsi(), local.TotalExecuted())
	if d < 0 || perUnit < 0 {
		t.Fatalf("metrics on federation vectors: Δψ=%d per-unit=%v", d, perUnit)
	}
	// On a saturated, skewed scenario load balancing must increase the
	// federation-wide value (more work completed earlier somewhere).
	if balanced.FederationValue() <= local.FederationValue() {
		t.Fatalf("least-loaded value %d not above local-only %d — delegation did nothing",
			balanced.FederationValue(), local.FederationValue())
	}
}

// TestFederationSubmitValidation covers the routing layer's input
// checks and the lockstep clock contract.
func TestFederationSubmitValidation(t *testing.T) {
	specs := []fed.ClusterSpec{
		{Name: "a", Alg: algFactory("directcontr"), Machines: []int{1, 0}},
		{Name: "b", Alg: algFactory("directcontr"), Machines: []int{0, 1}},
	}
	f, err := fed.New([]string{"o0", "o1"}, specs, fed.LocalOnly{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(-1, 0, 1, 0); err == nil {
		t.Error("unknown origin accepted")
	}
	if _, err := f.Submit(0, 5, 1, 0); err == nil {
		t.Error("unknown org accepted")
	}
	if _, err := f.Submit(0, 0, 0, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := f.Submit(0, 0, 3, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Step(20); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(0, 0, 3, 5); err == nil {
		t.Error("release in the federation's past accepted")
	}
	if _, err := f.Step(10); err == nil {
		t.Error("step backwards accepted")
	}
	if err := f.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

// TestFederationNewValidation covers configuration validation.
func TestFederationNewValidation(t *testing.T) {
	alg := algFactory("directcontr")
	ok := []fed.ClusterSpec{{Name: "a", Alg: alg, Machines: []int{1}}}
	if _, err := fed.New(nil, ok, fed.LocalOnly{}, 1); err == nil {
		t.Error("empty org universe accepted")
	}
	if _, err := fed.New([]string{"o"}, nil, fed.LocalOnly{}, 1); err == nil {
		t.Error("empty cluster list accepted")
	}
	if _, err := fed.New([]string{"o"}, ok, nil, 1); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := fed.New([]string{"o"}, []fed.ClusterSpec{{Name: "a", Machines: []int{1}}}, fed.LocalOnly{}, 1); err == nil {
		t.Error("nil algorithm accepted")
	}
	if _, err := fed.New([]string{"o"}, []fed.ClusterSpec{{Name: "a", Alg: alg, Machines: []int{1, 2}}}, fed.LocalOnly{}, 1); err == nil {
		t.Error("machine grid width mismatch accepted")
	}
	if _, err := fed.New([]string{"o"}, []fed.ClusterSpec{{Name: "a", Alg: alg, Machines: []int{0}}}, fed.LocalOnly{}, 1); err == nil {
		t.Error("machineless cluster accepted")
	}

	// Members are the players of the federation game: model.MaxOrgs of
	// them route and step, one more is refused by New and by Restore
	// before the game's coalitions could overflow.
	wide := make([]fed.ClusterSpec, model.MaxOrgs+1)
	for c := range wide {
		wide[c] = fed.ClusterSpec{Name: fmt.Sprintf("m%d", c), Alg: alg, Machines: []int{1}}
	}
	f, err := fed.New([]string{"o"}, wide[:model.MaxOrgs], fed.NBSPolicy{}, 1)
	if err != nil {
		t.Fatalf("%d members refused: %v", model.MaxOrgs, err)
	}
	if _, err := f.Submit(0, 0, 3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Step(10); err != nil {
		t.Fatal(err)
	}
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Restore([]string{"o"}, wide[:model.MaxOrgs], fed.NBSPolicy{}, snap); err != nil {
		t.Fatalf("%d members refused on restore: %v", model.MaxOrgs, err)
	}
	if _, err := fed.New([]string{"o"}, wide, fed.NBSPolicy{}, 1); err == nil || !strings.Contains(err.Error(), "maximum") {
		t.Errorf("%d members: %v, want a refusal naming the maximum", len(wide), err)
	}
	if _, err := fed.Restore([]string{"o"}, wide, fed.NBSPolicy{}, snap); err == nil || !strings.Contains(err.Error(), "maximum") {
		t.Errorf("%d members on restore: %v, want a refusal naming the maximum", len(wide), err)
	}
}
