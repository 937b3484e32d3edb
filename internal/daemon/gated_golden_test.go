package daemon

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/model"
)

// goldenFile holds one line per gated single-cluster run: the case, the
// seed its engine ran with, digests of its decisions, result and
// admission counters, and the admitted/rejected/released totals. It was
// written by the single-cluster admission gate that preceded gated
// single sessions running as one-member federations.
const goldenFile = "testdata/gated_single_golden.txt"

// goldenAlgs and goldenSpecs span the grid: six algorithms, each
// admission policy, fresh and stale views.
var (
	goldenAlgs  = []string{"ref", "rand", "directcontr", "nbs", "fairshare", "fcfs"}
	goldenSpecs = []struct {
		name string
		spec ctrl.PolicySpec
	}{
		{"always", ctrl.PolicySpec{Policy: "always"}},
		{"bucket", ctrl.PolicySpec{Policy: "tokenbucket", Rate: 1, Period: 8, Burst: 1, MaxAttempts: 2}},
		{"bucket-work-stale", ctrl.PolicySpec{Policy: "tokenbucket", Rate: 2, Period: 1, Burst: 12, SizeCost: true, MaxAttempts: 3, Staleness: 10}},
		{"backpressure", ctrl.PolicySpec{Policy: "backpressure", MaxWaiting: 2, RetryAfter: 3, MaxAttempts: 4}},
		{"backpressure-stale", ctrl.PolicySpec{Policy: "backpressure", MaxWaiting: 2, RetryAfter: 3, MaxAttempts: 4, Staleness: 20}},
	}
)

const goldenSeeds = 60

// goldenWorkload is seed's run: 2 to 4 organizations on as many to
// three more machines, and 20 to 59 jobs released over [0, 120).
func goldenWorkload(seed int64) (orgs, machines int, jobs []JobSubmission) {
	r := rand.New(rand.NewSource(1000 + seed))
	orgs = 2 + r.Intn(3)
	machines = orgs + r.Intn(4)
	jobs = make([]JobSubmission, 20+r.Intn(40))
	for i := range jobs {
		release := model.Time(r.Intn(120))
		jobs[i] = JobSubmission{Org: r.Intn(orgs), Size: model.Time(1 + r.Intn(12)), Release: &release}
	}
	return orgs, machines, jobs
}

// driveOnline submits jobs just before their releases — at each 3-tick
// step, every job released by the next one — and then drains the run
// to t = 400.
func driveOnline(t testing.TB, s *Session, jobs []JobSubmission) {
	t.Helper()
	for tm := model.Time(0); tm < 400; tm += 3 {
		var batch []JobSubmission
		for _, j := range jobs {
			if *j.Release <= tm && *j.Release > tm-3 {
				batch = append(batch, j)
			}
		}
		if len(batch) > 0 {
			if _, err := s.Submit(batch); err != nil {
				t.Fatalf("submit at %d: %v", tm, err)
			}
		}
		if _, _, err := s.Advance(&tm); err != nil {
			t.Fatalf("advance to %d: %v", tm, err)
		}
	}
	end := model.Time(400)
	if _, _, err := s.Advance(&end); err != nil {
		t.Fatal(err)
	}
}

// digest is the first 16 hex digits of the SHA-256 of what v prints.
func digest(v ...any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(v...))))[:16]
}

// goldenLine summarizes a drained gated single-cluster run.
func goldenLine(name string, eng *engine.Engine, st *metrics.AdmissionStats) string {
	var decs strings.Builder
	for _, d := range eng.Decisions() {
		fmt.Fprintf(&decs, "%d %d %d %d\n", d.Job, d.Org, d.Machine, d.At)
	}
	res := eng.Result()
	phi := make([]uint64, len(res.Phi))
	for i, p := range res.Phi {
		phi[i] = math.Float64bits(p)
	}
	stats, err := json.Marshal(st)
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf("%s %d %s %s %s %d/%d/%d", name, eng.Seed(), digest(decs.String()),
		digest(res.Psi, phi, res.Value, math.Float64bits(res.Utilization)), digest(string(stats)),
		st.TotalAdmitted(), st.TotalRejected(), st.TotalReleased())
}

// readGolden returns the golden lines keyed by case name.
func readGolden(t testing.TB) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, _, _ := strings.Cut(sc.Text(), " ")
		out[name] = sc.Text()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGatedSingleSessionsMatchGolden: a gated single session is a
// one-member federation, and it runs exactly as the single-cluster
// admission gate it replaced did — same decisions, ψ, φ and admission
// counters on every (algorithm, admission spec, seed) of the golden
// grid, its member on the seed the gate's engine ran with.
func TestGatedSingleSessionsMatchGolden(t *testing.T) {
	golden := readGolden(t)
	if want := len(goldenAlgs) * len(goldenSpecs) * goldenSeeds; len(golden) != want {
		t.Fatalf("%s holds %d runs, want %d", goldenFile, len(golden), want)
	}
	for _, alg := range goldenAlgs {
		for _, sp := range goldenSpecs {
			for seed := int64(0); seed < goldenSeeds; seed++ {
				name := fmt.Sprintf("%s/%s/%d", alg, sp.name, seed)
				orgs, machines, jobs := goldenWorkload(seed)
				spec := sp.spec
				s, err := NewManager().Create("g", SessionConfig{Kind: KindSingle, Alg: alg, Orgs: orgs, Machines: machines, Seed: seed, Admission: &spec})
				if err != nil {
					t.Fatal(err)
				}
				driveOnline(t, s, jobs)
				run := s.run.(*gatedRun)
				if got := goldenLine(name, run.member.Engine, run.AdmissionStats()); got != golden[name] {
					t.Errorf("gated single session differs from the gate's run:\n got %s\nwant %s", got, golden[name])
				}
			}
		}
	}
}
