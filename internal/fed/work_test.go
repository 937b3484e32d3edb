package fed_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/fed"
	"repro/internal/model"
)

var update = flag.Bool("update", false, "rewrite testdata/work.golden")

// The fed-gated shape: 8 nbs members × 6 organizations, each member's
// four machines owned by a rotating four of the six, gossip staleness
// 25 and a 3/10/6/3 token bucket. Each round submits 32 jobs released
// over its 40 ticks and steps to its end; 24 jobs are preloaded.
const (
	gatedMembers   = 8
	gatedOrgs      = 6
	gatedStaleness = 25
	gatedTicks     = 40
	gatedJobs      = 32
	gatedPreload   = 24
)

func gatedSpec() *ctrl.PolicySpec {
	return &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 3, Period: 10, Burst: 6, MaxAttempts: 3}
}

func gatedOrgNames() []string {
	names := make([]string, gatedOrgs)
	for o := range names {
		names[o] = fmt.Sprintf("org%d", o)
	}
	return names
}

func gatedClusters() []fed.ClusterSpec {
	specs := make([]fed.ClusterSpec, gatedMembers)
	for c := range specs {
		machines := make([]int, gatedOrgs)
		for o := range machines {
			if (o+c)%3 != 0 {
				machines[o] = 1
			}
		}
		specs[c] = fed.ClusterSpec{Name: fmt.Sprintf("m%d", c), Alg: core.NbsAlgorithm{}, Machines: machines}
	}
	return specs
}

// gatedStream is the submissions: batch 0 the preload, batch r+1 round
// r's jobs. Origins and organizations tilt toward low indices (the
// lower of two draws), which saturates some members and empties one
// organization's bucket, so routing, migration and deferral all work;
// sizes are 10 to 50.
func gatedStream(rounds int) [][]fed.SourceJob {
	s := uint64(1)
	next := func(n int) int {
		s += 0x9E3779B97F4A7C15
		x := s
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		return int((x ^ (x >> 31)) % uint64(n))
	}
	skewed := func(n int) int { return min(next(n), next(n)) }
	batch := func(n int, from model.Time) []fed.SourceJob {
		jobs := make([]fed.SourceJob, n)
		for i := range jobs {
			jobs[i] = fed.SourceJob{
				Cluster: skewed(gatedMembers), Org: skewed(gatedOrgs),
				Size: model.Time(10 + next(41)), Release: from + model.Time(next(gatedTicks)),
			}
		}
		return jobs
	}
	out := [][]fed.SourceJob{batch(gatedPreload, 0)}
	for r := 0; r < rounds; r++ {
		out = append(out, batch(gatedJobs, model.Time(r)*gatedTicks))
	}
	return out
}

// gatedFederation builds the fed-gated shape under policy, gated when
// gate is set, with the preload submitted. count, when set, sees the
// federation before a plane takes its snapshot provider.
func gatedFederation(t testing.TB, policy fed.Policy, staleness model.Time, gate bool, stream [][]fed.SourceJob, count func(*fed.Federation)) *fed.Federation {
	t.Helper()
	f, err := fed.New(gatedOrgNames(), gatedClusters(), policy, 7)
	if err != nil {
		t.Fatal(err)
	}
	f.SetStaleness(staleness)
	if count != nil {
		count(f)
	}
	if gate {
		if err := f.SetAdmission(gatedSpec()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.SubmitJobs(stream[0]); err != nil {
		t.Fatal(err)
	}
	return f
}

// gatedRound submits round r's jobs and steps to the round's end.
func gatedRound(t testing.TB, f *fed.Federation, stream [][]fed.SourceJob, r int) {
	t.Helper()
	if _, err := f.SubmitJobs(stream[r+1]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Step(model.Time(r+1) * gatedTicks); err != nil {
		t.Fatal(err)
	}
}

// countingScorer is FedNBS with every entry point the federation may
// call forwarded and counted: Scores once per scored exchange, Route
// and RouteLedger per job routed the per-job way.
type countingScorer struct {
	inner          fed.NBSPolicy
	scores, perJob int
}

func (p *countingScorer) Name() string { return p.inner.Name() }

func (p *countingScorer) Route(org, origin int, sums []fed.Summary) int {
	p.perJob++
	return p.inner.Route(org, origin, sums)
}

func (p *countingScorer) RouteLedger(org, origin int, sums []fed.Summary, routed [][]int64) int {
	p.perJob++
	return p.inner.RouteLedger(org, origin, sums, routed)
}

func (p *countingScorer) Scores(sums []fed.Summary, routed [][]int64) []float64 {
	p.scores++
	return p.inner.Scores(sums, routed)
}

// TestFedWork holds the work routing does on the fed-gated shape to
// testdata/work.golden (go test ./internal/fed -run TestFedWork -update
// rewrites it), counted from outside the federation: exchanges captured,
// score evaluations (Scores calls), per-job policy calls, jobs routed,
// the queued jobs migration passes scan, migrations, and allocations
// per round, mid-stream. FedNBS scores an exchange at most once and
// routes no job by a policy call. The second line is the same session
// at ten times the age: a migration pass scans what its members hold
// queued, so the jobs it scans per exchange follow the backlog, which
// grows by less than half as the saturated members fill up, and a round
// allocates no more than a young one.
func TestFedWork(t *testing.T) {
	young, old := fedWork(t, 32), fedWork(t, 320)
	if old.perExchange > 1.5*young.perExchange {
		t.Errorf("a migration pass scans %.1f jobs per exchange at %d rounds, %.1f at %d: more than 1.5× is history, not backlog",
			old.perExchange, old.rounds, young.perExchange, young.rounds)
	}
	if old.allocs > young.allocs {
		t.Errorf("a round allocates %d times at %d rounds, %d at %d", old.allocs, old.rounds, young.allocs, young.rounds)
	}
	got := strings.Join([]string{
		fmt.Sprintf("# Work of a fed-gated-shaped federation: %d nbs members × %d organizations, fednbs-migrate, staleness %d, token bucket 3/10/6/3;", gatedMembers, gatedOrgs, gatedStaleness),
		fmt.Sprintf("# %d jobs preloaded, then rounds of %d jobs over %d ticks. Counts are totals over the rounds; allocs_per_round is testing.AllocsPerRun of one round (submit and step), mid-stream.", gatedPreload, gatedJobs, gatedTicks),
		young.line, old.line,
	}, "\n") + "\n"
	t.Log("\n" + got)
	const golden = "testdata/work.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the work ledger moved (rewrite with -update if that is meant):\ngot:\n%swant:\n%s", got, want)
	}
}

// work is one line of TestFedWork's ledger.
type work struct {
	rounds, allocs int
	perExchange    float64 // jobs a migration pass scans per exchange
	line           string
}

// fedWork runs the fed-gated shape for rounds rounds, counting, and
// measures a round's allocations halfway through a second run.
func fedWork(t *testing.T, rounds int) work {
	t.Helper()
	const runs = 16
	stream := gatedStream(rounds + runs)
	policy := &countingScorer{}
	var exchanges, queued int
	f := gatedFederation(t, fed.Migrating{Inner: policy, Budget: fed.DefaultMigrationBudget}, gatedStaleness, true, stream, func(f *fed.Federation) { f.CountCaptures(&exchanges, &queued) })
	for r := 0; r < rounds; r++ {
		gatedRound(t, f, stream, r)
	}
	if err := f.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	routed := f.AdmissionStats().TotalAdmitted()
	if policy.scores > exchanges {
		t.Errorf("%d score evaluations on %d exchanges: an exchange was scored twice", policy.scores, exchanges)
	}
	if policy.perJob != 0 {
		t.Errorf("%d per-job policy calls: a Scorer's jobs route on its exchange's scores", policy.perJob)
	}
	if f.Ledger().Migrations == 0 || f.AdmissionStats().MeanLatency() == 0 {
		t.Errorf("%d migrations, mean admission latency %g: the stream does not exercise migration and deferral", f.Ledger().Migrations, f.AdmissionStats().MeanLatency())
	}

	m := gatedFederation(t, fed.Migrating{Inner: fed.NBSPolicy{}, Budget: fed.DefaultMigrationBudget}, gatedStaleness, true, stream, nil)
	warm := rounds / 2
	for r := 0; r < warm; r++ {
		gatedRound(t, m, stream, r)
	}
	r := warm
	allocs := int(testing.AllocsPerRun(runs, func() {
		gatedRound(t, m, stream, r)
		r++
	}))
	if r != warm+runs+1 { // AllocsPerRun warms up with one call
		t.Fatalf("%d rounds measured, want %d", r-warm, runs+1)
	}
	return work{
		rounds: rounds, allocs: allocs, perExchange: float64(queued) / float64(exchanges),
		line: fmt.Sprintf("fednbs-migrate rounds=%d exchanges=%d score_evaluations=%d per_job_policy_calls=%d routed=%d redelegate_candidates=%d migrations=%d allocs_per_round=%d",
			rounds, exchanges, policy.scores, policy.perJob, routed, queued, f.Ledger().Migrations, allocs),
	}
}
