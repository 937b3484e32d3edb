package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/shapley"
	"repro/internal/stats"
)

// diffInstance builds a randomized instance exercising the driver edge
// cases: same-instant release bursts, heterogeneous machine speeds in
// half the instances (remainder slots are where a stale value
// polynomial would first go wrong) and identical machines, where slots
// enter free flow, in the other half, idle stretches and organizations
// with no machines or no jobs.
func diffInstance(r *rand.Rand, k int) *model.Instance {
	orgs := make([]model.Org, k)
	related := r.Intn(2) == 0 // else identical machines, where the sets keep a release-start ledger
	for i := range orgs {
		m := r.Intn(3) // 0 machines is a legal, interesting degenerate
		o := model.Org{Name: string(rune('A' + i)), Machines: m}
		if related && m > 0 && r.Intn(2) == 0 {
			o.Speeds = make([]int, m)
			for s := range o.Speeds {
				o.Speeds[s] = 1 + r.Intn(3)
			}
		}
		orgs[i] = o
	}
	if orgs[0].Machines == 0 {
		orgs[0].Machines = 1 // keep the instance schedulable
		orgs[0].Speeds = nil
	}
	n := 4 + r.Intn(16)
	jobs := make([]model.Job, n)
	for i := range jobs {
		release := model.Time(r.Intn(12))
		if r.Intn(3) == 0 {
			release = model.Time(5) // cluster several releases on one instant
		}
		jobs[i] = model.Job{
			Org:     r.Intn(k),
			Release: release,
			Size:    model.Time(1 + r.Intn(7)),
		}
	}
	return model.MustNewInstance(orgs, jobs)
}

func assertSameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Starts) != len(b.Starts) {
		t.Fatalf("%s: start counts differ: %d vs %d", label, len(a.Starts), len(b.Starts))
	}
	for i := range a.Starts {
		if a.Starts[i] != b.Starts[i] {
			t.Fatalf("%s: start %d differs: %+v vs %+v", label, i, a.Starts[i], b.Starts[i])
		}
	}
	for u := range a.Psi {
		if a.Psi[u] != b.Psi[u] {
			t.Fatalf("%s: ψ[%d] differs: %d vs %d", label, u, a.Psi[u], b.Psi[u])
		}
	}
	if a.Value != b.Value || a.Ptot != b.Ptot {
		t.Fatalf("%s: value/ptot differ: (%d,%d) vs (%d,%d)", label, a.Value, a.Ptot, b.Value, b.Ptot)
	}
	for u := range a.Phi {
		if math.Abs(a.Phi[u]-b.Phi[u]) > 1e-9 {
			t.Fatalf("%s: φ[%d] differs: %v vs %v", label, u, a.Phi[u], b.Phi[u])
		}
	}
}

// The touched-set loop must reproduce the oracle's schedules, utilities
// and contributions exactly on every instance with n ≤ 6 organizations —
// the oracle is the executable spec of Figure 1.
func TestHeapDriverMatchesScanDriver(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		k := 2 + r.Intn(5) // 2..6 organizations
		in := diffInstance(r, k)
		horizon := in.Horizon() + 2
		scan := runStepper(oracleOf(RefAlgorithm{}, in, 0), horizon)
		heap := RefAlgorithm{}.Run(in, horizon, 0)
		assertSameResult(t, "loop vs oracle", scan, heap)
	}
}

// The loop and the oracle must also agree mid-trace (a horizon cutting through
// running jobs), not only after every job completed.
func TestHeapDriverMatchesScanDriverTruncatedHorizon(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(2000 + seed))
		k := 2 + r.Intn(5)
		in := diffInstance(r, k)
		horizon := in.Horizon()/2 + 1
		scan := runStepper(oracleOf(RefAlgorithm{}, in, 0), horizon)
		heap := RefAlgorithm{}.Run(in, horizon, 0)
		assertSameResult(t, "truncated horizon", scan, heap)
	}
}

// On a realistic generated workload (bursty sessions, heavy-tailed
// sizes, Zipf machine split) the loop and the oracle must agree as well;
// rotation mode is included since it perturbs within-instant selection.
func TestHeapDriverMatchesScanDriverOnFamilyWorkload(t *testing.T) {
	fam := gen.LPCEGEE().Scale(0.1)
	const orgs, horizon = 5, 3000
	machines := stats.ZipfSplit(fam.Procs, orgs, 1)
	inst, err := fam.Instance(horizon, orgs, machines, stats.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, rotate := range []bool{false, true} {
		alg := RefAlgorithm{Opts: RefOptions{Rotate: rotate}}
		scan := runStepper(oracleOf(alg, inst, 0), horizon)
		heap := alg.Run(inst, horizon, 0)
		assertSameResult(t, "family workload", scan, heap)
	}
}

// The touched-set loop's φ must equal the generic Shapley value of the
// induced game (every coalition's final value)
// within 1e-9 — Figure 1's incremental computation against Equation 1.
func TestHeapDriverPhiMatchesExactShapleyOnMapGame(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(3000 + seed))
		k := 2 + r.Intn(5)
		in := diffInstance(r, k)
		horizon := in.Horizon() + 2
		ref := NewRef(in, RefOptions{})
		res := ref.Run(horizon)
		exact := shapley.Exact(shapley.FuncGame{N: k, F: func(c model.Coalition) float64 {
			return float64(ref.ValueOf(c))
		}})
		for u := 0; u < k; u++ {
			if math.Abs(res.Phi[u]-exact[u]) > 1e-9 {
				t.Fatalf("seed %d: φ[%d] = %v, Exact = %v", seed, u, res.Phi[u], exact[u])
			}
		}
	}
}

// Every embedded subschedule — not just the grand result — must agree
// between the loop and the oracle, as full cluster states (queues,
// running entries with their start times, per-owner accounts, the
// decision log on the schedule that keeps one), mid-run and at the
// horizon. The oracle reads every value at every instant and the loop
// does not, so the two differ in when accrual was last folded; reading
// the values first folds both at the compared instant.
func TestHeapDriverSubcoalitionValuesMatchScan(t *testing.T) {
	r := rand.New(rand.NewSource(4000))
	for trial := 0; trial < 8; trial++ {
		k := 2 + r.Intn(5)
		in := diffInstance(r, k)
		horizon := in.Horizon() + 1
		scan := NewRef(in, RefOptions{})
		heap := NewRef(in, RefOptions{})
		oracle := newOracle(scan.set())
		for _, at := range []model.Time{horizon / 4, horizon / 2, 3 * horizon / 4, horizon} {
			for _, s := range []Stepper{oracle, heap} {
				for s.StepNext(at) {
				}
				s.FinishAt(at)
			}
			for mask := model.Coalition(1); mask <= model.Grand(k); mask++ {
				if sv, hv := scan.ValueOf(mask), heap.ValueOf(mask); sv != hv {
					t.Fatalf("trial %d, t=%d: v(%v) scan=%d heap=%d", trial, at, mask, sv, hv)
				}
				ss, err := json.Marshal(scan.Cluster(mask).CaptureState())
				if err != nil {
					t.Fatal(err)
				}
				hs, err := json.Marshal(heap.Cluster(mask).CaptureState())
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ss, hs) {
					t.Fatalf("trial %d, t=%d: coalition %v's schedule differs:\nscan %s\nheap %s", trial, at, mask, ss, hs)
				}
			}
		}
		if len(scan.Starts()) != len(in.Jobs) {
			t.Fatalf("trial %d: %d of %d jobs started by the horizon", trial, len(scan.Starts()), len(in.Jobs))
		}
	}
}
