package fed_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/ctrl"
	"repro/internal/fed"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// scenarioSpecs are the member clusters of a generated workload, with
// fresh algorithm values dealt round-robin from algs.
func scenarioSpecs(w *gen.FedWorkload, algs []string) []fed.ClusterSpec {
	specs := make([]fed.ClusterSpec, len(w.Machines))
	for c := range specs {
		specs[c] = fed.ClusterSpec{
			Name:     fmt.Sprintf("site%d", c),
			Alg:      algFactory(algs[c%len(algs)]),
			Machines: w.Machines[c],
		}
	}
	return specs
}

// emptyFederation builds a federation over the test scenario's
// machines without submitting any jobs.
func emptyFederation(t testing.TB, algs []string, policy fed.Policy, seed int64) (*fed.Federation, *gen.FedWorkload) {
	t.Helper()
	w, err := testScenario().Generate(6000, stats.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	f, err := fed.New(w.Orgs, scenarioSpecs(w, algs), policy, seed)
	if err != nil {
		t.Fatal(err)
	}
	return f, w
}

// drainGenSource materializes the streaming scenario source — the
// eager submission order the chunked run must reproduce exactly.
func drainGenSource(t testing.TB, seed int64) []fed.SourceJob {
	t.Helper()
	src, err := testScenario().Source(6000, seed)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []fed.SourceJob
	for {
		j, ok, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return jobs
		}
		jobs = append(jobs, j)
	}
}

// streamCase is one federation shape the chunked-ingestion tests
// cover: plain, ledger-routed, migrating, migrating on stale gossip, and
// migrating on stale gossip behind a token-bucket gate.
type streamCase struct {
	policy    fed.Policy
	staleness model.Time
	admission *ctrl.PolicySpec
}

var streamCases = []streamCase{
	{policy: fed.LeastLoaded{}},
	{policy: fed.RefPolicy{}},
	{policy: fed.Migrating{Inner: fed.FairnessAware{}, Budget: fed.DefaultMigrationBudget}},
	{policy: fed.Migrating{Inner: fed.RefPolicy{}, Budget: fed.DefaultMigrationBudget}, staleness: 40},
	{
		policy:    fed.Migrating{Inner: fed.NBSPolicy{}, Budget: fed.DefaultMigrationBudget},
		staleness: 25,
		admission: &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 1, Period: 60, Burst: 2},
	},
}

// build returns an empty federation of the case's shape and the static
// configuration that restores it.
func (sc streamCase) build(t testing.TB) (*fed.Federation, []string, []fed.ClusterSpec) {
	t.Helper()
	algs := []string{"ref", "directcontr", "fairshare"}
	f, w := emptyFederation(t, algs, sc.policy, 11)
	f.SetStaleness(sc.staleness)
	if err := f.SetAdmission(sc.admission); err != nil {
		t.Fatal(err)
	}
	return f, w.Orgs, scenarioSpecs(w, algs)
}

// streamSteps are the instants every chunked run steps through: the
// decision log records starts in discovery order (one advanceMembers
// burst per stepped instant, member-major), so two runs compare as
// bytes only when they share the stepping sequence.
func streamSteps(horizon model.Time, n int) []model.Time {
	steps := make([]model.Time, n)
	for i := range steps {
		steps[i] = horizon * model.Time(i+1) / model.Time(n)
	}
	return steps
}

// newScenarioSource opens a fresh replay of the test scenario's stream.
func newScenarioSource(t testing.TB, horizon model.Time, seed int64) fed.JobSource {
	t.Helper()
	src, err := testScenario().Source(horizon, seed)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// stepChunked alternates SubmitThrough(src, t) and Step(t) over steps
// and returns the largest pending queue it saw (right after a
// SubmitThrough, where it peaks).
func stepChunked(t testing.TB, f *fed.Federation, src fed.JobSource, steps []model.Time) (peak int) {
	t.Helper()
	for _, until := range steps {
		if _, err := f.SubmitThrough(src, until); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, f.PendingCount())
		if _, err := f.Step(until); err != nil {
			t.Fatal(err)
		}
	}
	return peak
}

// TestStreamingMatchesEager: feeding a JobSource through SubmitThrough
// one step ahead of Step ends in the Snapshot bytes of Submitting the
// whole stream up front and stepping through the same instants —
// sequence numbers are assigned in stream order either way, and every
// release instant is complete before it is delivered.
func TestStreamingMatchesEager(t *testing.T) {
	jobs := drainGenSource(t, 11)
	if len(jobs) == 0 {
		t.Fatal("scenario source yielded no jobs")
	}
	steps := streamSteps(6000, 16)
	for _, sc := range streamCases {
		t.Run(sc.policy.Name(), func(t *testing.T) {
			eager, _, _ := sc.build(t)
			for _, j := range jobs {
				if _, err := eager.Submit(j.Cluster, j.Org, j.Size, j.Release); err != nil {
					t.Fatal(err)
				}
			}
			for _, until := range steps {
				if _, err := eager.Step(until); err != nil {
					t.Fatal(err)
				}
			}

			chunked, _, _ := sc.build(t)
			src := newScenarioSource(t, 6000, 11)
			stepChunked(t, chunked, src, steps)
			if done, err := chunked.SubmitThrough(src, 6000); err != nil || !done {
				t.Fatalf("stream not drained at the horizon: done=%v err=%v", done, err)
			}
			if got, want := chunked.Submitted(), int64(len(jobs)); got != want {
				t.Fatalf("chunked run accepted %d jobs, want %d", got, want)
			}
			if err := chunked.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			if len(chunked.Decisions()) == 0 {
				t.Fatal("chunked run made no decisions")
			}
			if st := chunked.AdmissionStats(); sc.admission != nil && deferred(st) == 0 {
				t.Fatal("the gate deferred nothing — the case does not exercise admission")
			}
			if _, ok := sc.policy.(fed.Migrating); ok && chunked.Ledger().Migrations == 0 {
				t.Fatal("nothing migrated — the case does not exercise re-delegation")
			}
			want, err := eager.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got, err := chunked.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("chunked run diverged from the eager run of the same stream")
			}
		})
	}
}

// TestStreamingMemoryBound: a chunked run never holds more than one
// step's releases plus the one job that proved the step complete,
// against an eager run that holds the whole stream — so at a fixed step
// length the peak does not grow with the trace. Its -v log is the
// "Streaming ingestion" table of EXPERIMENTS.md.
func TestStreamingMemoryBound(t *testing.T) {
	t.Logf("| horizon | steps | jobs | eager peak pending | chunked peak pending | bound |")
	for _, horizon := range []model.Time{6000, 60000} {
		steps := streamSteps(horizon, int(horizon/375))
		src := newScenarioSource(t, horizon, 11)
		perStep := make([]int, len(steps))
		jobs := 0
		for {
			j, ok, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			jobs++
			k := 0
			for steps[k] < j.Release {
				k++
			}
			perStep[k]++
		}
		bound := slices.Max(perStep) + 1
		if jobs < 2*bound {
			t.Fatalf("stream of %d jobs is too short to tell one step's releases (bound %d) from the whole stream", jobs, bound)
		}

		f, _ := emptyFederation(t, []string{"fairshare"}, fed.FairnessAware{}, 11)
		peak := stepChunked(t, f, newScenarioSource(t, horizon, 11), steps)
		t.Logf("| %d | %d | %d | %d | %d | %d |", horizon, len(steps), jobs, jobs, peak, bound)
		if peak > bound {
			t.Fatalf("horizon %d: pending peaked at %d jobs; one step's releases + 1 is %d", horizon, peak, bound)
		}
		if got := f.Submitted(); got != int64(jobs) {
			t.Fatalf("horizon %d: %d of %d jobs accepted (stream not fully consumed)", horizon, got, jobs)
		}
	}
}

// TestStreamingCheckpointRestore: a checkpoint taken mid-stream holds
// no cursor; restoring it, re-opening the source, discarding the
// Submitted() jobs the snapshot already accounts for and stepping on
// reproduces the uninterrupted run byte for byte.
func TestStreamingCheckpointRestore(t *testing.T) {
	steps := streamSteps(6000, 16)
	const cut = 7
	for _, sc := range streamCases {
		t.Run(sc.policy.Name(), func(t *testing.T) {
			straight, _, _ := sc.build(t)
			stepChunked(t, straight, newScenarioSource(t, 6000, 11), steps)

			interrupted, orgs, specs := sc.build(t)
			stepChunked(t, interrupted, newScenarioSource(t, 6000, 11), steps[:cut])
			if n := interrupted.Submitted(); n == 0 || n == straight.Submitted() {
				t.Fatalf("%d of %d jobs accepted at the cut — the checkpoint is not mid-stream", n, straight.Submitted())
			}
			snap, err := interrupted.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Contains(snap, []byte(`"source"`)) {
				t.Fatalf("mid-stream checkpoint carries a source block: %.200s", snap)
			}
			restored, err := fed.Restore(orgs, specs, sc.policy, snap)
			if err != nil {
				t.Fatal(err)
			}
			src := newScenarioSource(t, 6000, 11)
			for i := int64(0); i < restored.Submitted(); i++ {
				if _, ok, err := src.Next(); err != nil || !ok {
					t.Fatalf("replayed source ended %d jobs into a prefix of %d: %v", i, restored.Submitted(), err)
				}
			}
			stepChunked(t, restored, src, steps[cut:])

			want, err := straight.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("restored mid-stream run diverged from the uninterrupted run")
			}
		})
	}
}

// sliceSource serves a pre-built job slice, in nondecreasing Release
// order, as a fed.JobSource.
type sliceSource struct {
	jobs []fed.SourceJob
	i    int
}

func (s *sliceSource) Next() (fed.SourceJob, bool, error) {
	if s.i >= len(s.jobs) {
		return fed.SourceJob{}, false, nil
	}
	s.i++
	return s.jobs[s.i-1], true, nil
}

// failingSource yields its jobs and then an error.
type failingSource struct {
	sliceSource
	err error
}

func (s *failingSource) Next() (fed.SourceJob, bool, error) {
	j, ok, _ := s.sliceSource.Next()
	if !ok {
		return fed.SourceJob{}, false, s.err
	}
	return j, true, nil
}

// TestSourceValidation: a job the source yields passes the same checks
// as a submitted one. The Submit error surfaces from SubmitThrough, the
// jobs before it stay accepted, and the federation steps on.
func TestSourceValidation(t *testing.T) {
	good := fed.SourceJob{Cluster: 0, Org: 0, Size: 1, Release: 10}
	for name, bad := range map[string]fed.SourceJob{
		"decreasing release": {Cluster: 0, Org: 0, Size: 1, Release: 5},
		"unknown cluster":    {Cluster: 99, Org: 0, Size: 1, Release: 10},
		"unknown org":        {Cluster: 0, Org: 99, Size: 1, Release: 10},
		"zero size":          {Cluster: 0, Org: 0, Size: 0, Release: 10},
	} {
		t.Run(name, func(t *testing.T) {
			f, _ := emptyFederation(t, []string{"fairshare"}, fed.LocalOnly{}, 3)
			src := &sliceSource{jobs: []fed.SourceJob{good, bad, good}}
			// The first call stops at the good job, released after 7; by
			// the second the clock has passed the bad job's release of 5.
			if done, err := f.SubmitThrough(src, 7); err != nil || done {
				t.Fatalf("good job: done=%v err=%v", done, err)
			}
			if _, err := f.Step(7); err != nil {
				t.Fatal(err)
			}
			if _, err := f.SubmitThrough(src, 20); err == nil || !strings.Contains(err.Error(), "fed: submit") {
				t.Fatalf("invalid job accepted from the source: err = %v", err)
			}
			if got := f.Submitted(); got != 1 {
				t.Fatalf("%d jobs accepted around the bad one, want the 1 before it", got)
			}
			if done, err := f.SubmitThrough(src, 20); err != nil || !done {
				t.Fatalf("rest of the stream: done=%v err=%v", done, err)
			}
			if decs, err := f.Step(100); err != nil || len(decs) != 2 {
				t.Fatalf("stepping after a refused job: %d decisions, err = %v", len(decs), err)
			}
			if err := f.CheckConservation(); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("source error", func(t *testing.T) {
		f, _ := emptyFederation(t, []string{"fairshare"}, fed.LocalOnly{}, 3)
		broken := errors.New("disk on fire")
		src := &failingSource{sliceSource: sliceSource{jobs: []fed.SourceJob{good}}, err: broken}
		if _, err := f.SubmitThrough(src, 50); !errors.Is(err, broken) {
			t.Fatalf("source failure not surfaced: %v", err)
		}
		if got := f.Submitted(); got != 1 {
			t.Fatalf("%d jobs accepted before the failure, want 1", got)
		}
	})
}

// TestStreamingWithExplicitSubmits: Submit stays usable between
// SubmitThrough calls (a serving tier interleaves API submissions with
// a replay feed); the merged run conserves jobs and is deterministic.
func TestStreamingWithExplicitSubmits(t *testing.T) {
	run := func() []byte {
		f, _ := emptyFederation(t, []string{"ref", "fairshare"}, fed.FairnessAware{}, 5)
		src := newScenarioSource(t, 6000, 5)
		for i := 0; i <= 40; i++ {
			until := model.Time(i * 150)
			stepChunked(t, f, src, []model.Time{until})
			if _, err := f.Submit(i%3, i%3, model.Time(1+i%7), until); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.Step(6100); err != nil {
			t.Fatal(err)
		}
		if err := f.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		if f.PendingCount() != 0 || f.Submitted() <= 41 {
			t.Fatalf("%d pending, %d submitted: the source did not feed the run", f.PendingCount(), f.Submitted())
		}
		return fingerprint(t, f)
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("interleaved Submit + SubmitThrough runs diverged")
	}
}

// swfFixture is a small jittered SWF fragment: submits arrive slightly
// out of order (archives log at completion), one record is unusable.
// Fields: id submit wait runtime procs ... status user ...
const swfFixture = `; Version: 2.2
; Computer: fixture
1 0 -1 10 1 -1 -1 1 -1 -1 1 7 -1 -1 -1 -1 -1 -1
2 9 -1 6 1 -1 -1 1 -1 -1 1 8 -1 -1 -1 -1 -1 -1
3 5 -1 4 1 -1 -1 1 -1 -1 1 9 -1 -1 -1 -1 -1 -1
4 5 -1 -1 1 -1 -1 -1 -1 -1 0 7 -1 -1 -1 -1 -1 -1
5 3 -1 2 1 -1 -1 1 -1 -1 1 10 -1 -1 -1 -1 -1 -1
6 12 -1 8 1 -1 -1 1 -1 -1 1 8 -1 -1 -1 -1 -1 -1
7 11 -1 3 1 -1 -1 1 -1 -1 1 11 -1 -1 -1 -1 -1 -1
`

// TestSWFSource: the archive adapter reorders jittered submits inside
// its slack buffer into a valid nondecreasing stream, hashes users to
// stable (cluster, org) assignments, and drives a federation through
// a conserving, deterministic run.
func TestSWFSource(t *testing.T) {
	const clusters, orgs = 2, 3
	drain := func() []fed.SourceJob {
		src, err := fed.NewSWFSource(strings.NewReader(swfFixture), clusters, orgs, 42)
		if err != nil {
			t.Fatal(err)
		}
		src.SetSlack(4)
		var jobs []fed.SourceJob
		for {
			j, ok, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if src.Skipped() != 1 {
					t.Fatalf("skipped = %d, want 1 (record 4 is unusable)", src.Skipped())
				}
				return jobs
			}
			jobs = append(jobs, j)
		}
	}
	jobs := drain()
	if len(jobs) != 6 {
		t.Fatalf("drained %d jobs, want 6", len(jobs))
	}
	for i, j := range jobs {
		if i > 0 && j.Release < jobs[i-1].Release {
			t.Fatalf("release order violated at %d: %d after %d", i, j.Release, jobs[i-1].Release)
		}
		if j.Cluster < 0 || j.Cluster >= clusters || j.Org < 0 || j.Org >= orgs {
			t.Fatalf("job %d mapped outside the grid: %+v", i, j)
		}
	}
	// Same user, same assignment: fixture records 2 and 6 (sizes 6 and
	// 8) both belong to user 8.
	var u8 [][2]int
	for _, j := range jobs {
		if j.Size == 6 || j.Size == 8 {
			u8 = append(u8, [2]int{j.Cluster, j.Org})
		}
	}
	if len(u8) != 2 || u8[0] != u8[1] {
		t.Fatalf("user 8's jobs mapped inconsistently: %v", u8)
	}
	again := drain()
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatalf("replay diverged at job %d: %+v vs %+v", i, jobs[i], again[i])
		}
	}

	// Route the archive through a real federation.
	run := func() []byte {
		specs := make([]fed.ClusterSpec, clusters)
		machines := [][]int{{1, 1, 0}, {0, 1, 1}}
		for c := range specs {
			specs[c] = fed.ClusterSpec{Name: fmt.Sprintf("site%d", c), Alg: algFactory("fairshare"), Machines: machines[c]}
		}
		f, err := fed.New([]string{"a", "b", "c"}, specs, fed.LeastLoaded{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		src, err := fed.NewSWFSource(strings.NewReader(swfFixture), clusters, orgs, 42)
		if err != nil {
			t.Fatal(err)
		}
		src.SetSlack(4)
		if done, err := f.SubmitThrough(src, 100); err != nil || !done {
			t.Fatalf("archive not drained: done=%v err=%v", done, err)
		}
		if _, err := f.Step(100); err != nil {
			t.Fatal(err)
		}
		if err := f.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		return fingerprint(t, f)
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("SWF-fed federation runs diverged")
	}
}

// TestSWFSourceDisorderBeyondSlack: an archive whose submit disorder is
// wider than the reorder buffer must fail the pull that detects it, not
// silently emit a release going backwards (the old behavior handed the
// out-of-order job downstream and let the federation blame the source
// contract). Whatever was emitted before the failure stays nondecreasing,
// and the error is sticky.
func TestSWFSourceDisorderBeyondSlack(t *testing.T) {
	// Record 4's submit (5) is 95 behind records already emitted; with a
	// slack of 2 it surfaces only after submits 100 and 101 are out.
	const wild = `; Version: 2.2
1 100 -1 10 1 -1 -1 1 -1 -1 1 7 -1 -1 -1 -1 -1 -1
2 101 -1 6 1 -1 -1 1 -1 -1 1 8 -1 -1 -1 -1 -1 -1
3 102 -1 4 1 -1 -1 1 -1 -1 1 9 -1 -1 -1 -1 -1 -1
4 5 -1 2 1 -1 -1 1 -1 -1 1 10 -1 -1 -1 -1 -1 -1
`
	src, err := fed.NewSWFSource(strings.NewReader(wild), 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	src.SetSlack(2)
	var emitted []fed.SourceJob
	var pullErr error
	for {
		j, ok, err := src.Next()
		if err != nil {
			pullErr = err
			break
		}
		if !ok {
			break
		}
		emitted = append(emitted, j)
	}
	if pullErr == nil {
		t.Fatalf("disorder wider than the slack drained cleanly: %+v", emitted)
	}
	if !strings.Contains(pullErr.Error(), "slack") {
		t.Fatalf("error does not point at the slack knob: %v", pullErr)
	}
	for i := 1; i < len(emitted); i++ {
		if emitted[i].Release < emitted[i-1].Release {
			t.Fatalf("release went backwards before the failure: %+v", emitted)
		}
	}
	if _, _, err := src.Next(); err == nil {
		t.Fatal("source error is not sticky")
	}

	// The same archive with enough slack drains cleanly, sorted.
	src2, err := fed.NewSWFSource(strings.NewReader(wild), 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	src2.SetSlack(4)
	var last model.Time
	for n := 0; ; n++ {
		j, ok, err := src2.Next()
		if err != nil {
			t.Fatalf("wide-enough slack still failed: %v", err)
		}
		if !ok {
			if n != 4 {
				t.Fatalf("drained %d jobs, want 4", n)
			}
			break
		}
		if j.Release < last {
			t.Fatalf("sorted stream went backwards: %d after %d", j.Release, last)
		}
		last = j.Release
	}
}

// FuzzFedStreamStep interleaves Step, StepToNextEvent, Submit and
// SubmitThrough in any order — including stepping past releases the
// source has yet to yield, whose Submit is then refused — over a
// migrating federation, and asserts the two invariants everything else
// rests on: job conservation, and determinism — the same op sequence
// replays to identical bytes. After every op each member's queued jobs,
// which a migration pass scans, are the ones it was fed that neither
// started nor migrated away (CheckQueued).
func FuzzFedStreamStep(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, int64(1))
	f.Add([]byte{2, 2, 2, 9, 0, 7, 1}, int64(3))
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1}, int64(7))
	f.Add([]byte{}, int64(5))
	f.Add([]byte{203, 201, 251, 249, 3, 0, 103, 101, 2, 255, 253}, int64(11)) // SubmitThrough(t) then Step(t)
	f.Fuzz(func(t *testing.T, ops []byte, seed int64) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		sc := testScenario()
		run := func() []byte {
			w, err := sc.Generate(6000, stats.NewRand(seed))
			if err != nil {
				t.Skip("scenario rejected seed")
			}
			specs := scenarioSpecs(w, []string{"fairshare"})
			fd, err := fed.New(w.Orgs, specs, fed.Migrating{Inner: fed.FairnessAware{}, Budget: fed.DefaultMigrationBudget}, seed)
			if err != nil {
				t.Fatal(err)
			}
			src, err := sc.Source(6000, seed)
			if err != nil {
				t.Fatal(err)
			}
			// through feeds the source up to t. A job whose release the
			// clock has already passed is refused and dropped, like any
			// late Submit; nothing else may fail.
			through := func(t0 model.Time) (done bool) {
				done, err := fd.SubmitThrough(src, t0)
				if err != nil && !strings.Contains(err.Error(), "before federation time") {
					t.Fatal(err)
				}
				return done
			}
			for _, b := range ops {
				switch b % 4 {
				case 0:
					if _, _, err := fd.StepToNextEvent(); err != nil {
						t.Fatal(err)
					}
				case 1:
					if _, err := fd.Step(fd.Now() + model.Time(b)); err != nil {
						t.Fatal(err)
					}
				case 2:
					org := int(b/3) % len(w.Orgs)
					cluster := int(b/5) % len(specs)
					size := model.Time(1 + b%9)
					if _, err := fd.Submit(cluster, org, size, fd.Now()+model.Time(b%17)); err != nil {
						t.Fatal(err)
					}
				case 3:
					through(fd.Now() + model.Time(b-2))
				}
				if err := fd.CheckQueued(); err != nil {
					t.Fatal(err)
				}
			}
			// Drain everything, including submits released past 6000.
			for !through(sim.MaxTime) {
			}
			for {
				if _, ok, err := fd.StepToNextEvent(); err != nil {
					t.Fatal(err)
				} else if !ok {
					break
				}
			}
			if err := fd.CheckConservation(); err != nil {
				t.Fatal(err)
			}
			if fd.PendingCount() != 0 {
				t.Fatalf("%d jobs still pending after the drain", fd.PendingCount())
			}
			return fingerprint(t, fd)
		}
		if !bytes.Equal(run(), run()) {
			t.Fatal("identical op sequences diverged")
		}
	})
}
