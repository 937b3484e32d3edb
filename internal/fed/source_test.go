package fed_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fed"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/stats"
)

// emptyFederation builds a federation over the test scenario's
// machines without submitting any jobs — the caller attaches a source
// or submits explicitly.
func emptyFederation(t testing.TB, algs []string, policy fed.Policy, seed int64) (*fed.Federation, *gen.FedWorkload) {
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
	return f, w
}

// drainGenSource materializes the streaming scenario source — the
// eager submission order the streamed run must reproduce exactly.
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

// TestStreamingMatchesEager: attaching a JobSource is byte-identical
// to eagerly Submitting the same stream upfront — sequence numbers are
// assigned in stream order either way, so the lookahead window only
// changes memory, never decisions, ledger or ψ.
func TestStreamingMatchesEager(t *testing.T) {
	algs := []string{"ref", "directcontr", "fairshare"}
	jobs := drainGenSource(t, 11)
	if len(jobs) == 0 {
		t.Fatal("scenario source yielded no jobs")
	}
	for _, policy := range []fed.Policy{
		fed.RefPolicy{},
		fed.Migrating{Inner: fed.FairnessAware{}, Budget: fed.DefaultMigrationBudget},
	} {
		t.Run(policy.Name(), func(t *testing.T) {
			eager, _ := emptyFederation(t, algs, policy, 11)
			for _, j := range jobs {
				if _, err := eager.Submit(j.Cluster, j.Org, j.Size, j.Release); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := eager.Step(6000); err != nil {
				t.Fatal(err)
			}

			streamed, _ := emptyFederation(t, algs, policy, 11)
			src, err := testScenario().Source(6000, 11)
			if err != nil {
				t.Fatal(err)
			}
			if err := streamed.SetSource(src, 64); err != nil {
				t.Fatal(err)
			}
			if _, err := streamed.Step(6000); err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(fingerprint(t, eager), fingerprint(t, streamed)) {
				t.Fatal("streamed run diverged from the eager run of the same stream")
			}
			if len(streamed.Decisions()) == 0 {
				t.Fatal("streamed run made no decisions")
			}
			if got, want := streamed.SourceCursor(), int64(len(jobs)); got != want {
				t.Fatalf("source cursor = %d, want %d", got, want)
			}
		})
	}
}

// TestStreamingWindowInvariance: the lookahead window is a pure memory
// knob — every window size (including the pathological 1) produces the
// same bytes.
func TestStreamingWindowInvariance(t *testing.T) {
	algs := []string{"ref", "directcontr", "fairshare"}
	policy := fed.Migrating{Inner: fed.RefPolicy{}, Budget: fed.DefaultMigrationBudget}
	var want []byte
	for _, window := range []int{1, 7, 64, 0} { // 0 selects DefaultSourceWindow
		f, _ := emptyFederation(t, algs, policy, 11)
		src, err := testScenario().Source(6000, 11)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.SetSource(src, window); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Step(6000); err != nil {
			t.Fatal(err)
		}
		if err := f.CheckConservation(); err != nil {
			t.Fatalf("window=%d: %v", window, err)
		}
		print := fingerprint(t, f)
		if want == nil {
			want = print
			continue
		}
		if !bytes.Equal(print, want) {
			t.Fatalf("window=%d diverged", window)
		}
	}
}

// TestStreamingMemoryBound: with a window of W the pending queue never
// holds more than W + (largest same-instant batch) + 1 jobs — the O(W)
// residency claim, against an eager run that would hold the whole
// stream.
func TestStreamingMemoryBound(t *testing.T) {
	const window = 16
	jobs := drainGenSource(t, 11)
	maxBatch, run := 0, 0
	for i := range jobs {
		if i > 0 && jobs[i].Release == jobs[i-1].Release {
			run++
		} else {
			run = 1
		}
		if run > maxBatch {
			maxBatch = run
		}
	}
	bound := window + maxBatch + 1
	if len(jobs) < 4*bound {
		t.Fatalf("stream of %d jobs is too short to distinguish O(window) from O(n) residency (bound %d)", len(jobs), bound)
	}

	f, _ := emptyFederation(t, []string{"fairshare"}, fed.FairnessAware{}, 11)
	src, err := testScenario().Source(6000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetSource(src, window); err != nil {
		t.Fatal(err)
	}
	maxPending := f.PendingCount()
	for {
		_, ok, err := f.StepToNextEvent()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if n := f.PendingCount(); n > maxPending {
			maxPending = n
		}
	}
	if maxPending > bound {
		t.Fatalf("pending peaked at %d jobs; window %d bounds it by %d", maxPending, window, bound)
	}
	if got, want := f.SourceCursor(), int64(len(jobs)); got != want {
		t.Fatalf("source cursor = %d, want %d (stream not fully consumed)", got, want)
	}
}

// TestStreamingCheckpointRestore: a mid-stream checkpoint records only
// the source cursor; restoring, re-attaching a fresh replay of the
// source and stepping on reproduces the uninterrupted run byte for
// byte. Stepping before re-attaching is refused.
//
// The uninterrupted control run steps through the same instants as the
// checkpointed one: the decision log records starts in discovery order
// (one advanceMembers burst per stepped instant, member-major), so the
// step sequence is part of the log's byte layout — for any run, with
// or without a source. Snapshot/Restore must be the only perturbation.
func TestStreamingCheckpointRestore(t *testing.T) {
	algs := []string{"ref", "directcontr", "fairshare"}
	policy := fed.Migrating{Inner: fed.FairnessAware{}, Budget: fed.DefaultMigrationBudget}
	newSource := func() fed.JobSource {
		src, err := testScenario().Source(6000, 11)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}

	straight, _ := emptyFederation(t, algs, policy, 11)
	if err := straight.SetSource(newSource(), 16); err != nil {
		t.Fatal(err)
	}
	if _, err := straight.Step(2500); err != nil {
		t.Fatal(err)
	}
	if _, err := straight.Step(6000); err != nil {
		t.Fatal(err)
	}

	interrupted, w := emptyFederation(t, algs, policy, 11)
	if err := interrupted.SetSource(newSource(), 16); err != nil {
		t.Fatal(err)
	}
	if _, err := interrupted.Step(2500); err != nil {
		t.Fatal(err)
	}
	if interrupted.SourceCursor() == 0 {
		t.Fatal("no jobs consumed by t=2500 — checkpoint would not be mid-stream")
	}
	snap, err := interrupted.Snapshot()
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
	restored, err := fed.Restore(w.Orgs, specs, policy, snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Step(2600); err == nil || !strings.Contains(err.Error(), "SetSource") {
		t.Fatalf("stepping a restored streaming run without its source: err = %v, want re-attachment refusal", err)
	}
	if err := restored.SetSource(newSource(), 16); err != nil {
		t.Fatal(err)
	}
	if got, want := restored.SourceCursor(), interrupted.SourceCursor(); got != want {
		t.Fatalf("restored cursor = %d, want %d", got, want)
	}
	if _, err := restored.Step(6000); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(fingerprint(t, restored), fingerprint(t, straight)) {
		t.Fatal("restored mid-stream run diverged from the uninterrupted run")
	}
	snapA, err := straight.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapA, snapB) {
		t.Fatal("final checkpoints of the straight and restored runs differ")
	}
}

// TestSourceValidation: attachment and stream-contract violations are
// surfaced, and a source failure is sticky — the federation refuses to
// step past an unknowable stream.
func TestSourceValidation(t *testing.T) {
	build := func() *fed.Federation {
		f, _ := emptyFederation(t, []string{"fairshare"}, fed.LocalOnly{}, 3)
		return f
	}
	t.Run("nil source", func(t *testing.T) {
		if err := build().SetSource(nil, 0); err == nil {
			t.Fatal("nil source accepted")
		}
	})
	t.Run("duplicate attach", func(t *testing.T) {
		f := build()
		if err := f.SetSource(fed.NewSliceSource(nil), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.SetSource(fed.NewSliceSource(nil), 0); err == nil {
			t.Fatal("second source accepted")
		}
	})
	for name, jobs := range map[string][]fed.SourceJob{
		"decreasing release": {{Cluster: 0, Org: 0, Size: 1, Release: 10}, {Cluster: 0, Org: 0, Size: 1, Release: 5}},
		"unknown cluster":    {{Cluster: 99, Org: 0, Size: 1, Release: 0}},
		"unknown org":        {{Cluster: 0, Org: 99, Size: 1, Release: 0}},
		"zero size":          {{Cluster: 0, Org: 0, Size: 0, Release: 0}},
	} {
		t.Run(name, func(t *testing.T) {
			f := build()
			// The first window fills during SetSource, so the violation
			// surfaces immediately...
			if err := f.SetSource(fed.NewSliceSource(jobs), 8); err == nil {
				t.Fatal("invalid stream accepted")
			}
			// ...and stays sticky: the run cannot be stepped past it.
			if _, err := f.Step(100); err == nil {
				t.Fatal("stepping past a failed source succeeded")
			}
		})
	}
}

// TestStreamingWithExplicitSubmits: Submit stays usable alongside an
// attached source (the serving tier interleaves API submissions with a
// replay feed); the merged run is deterministic.
func TestStreamingWithExplicitSubmits(t *testing.T) {
	run := func() []byte {
		f, _ := emptyFederation(t, []string{"ref", "fairshare"}, fed.FairnessAware{}, 5)
		src, err := testScenario().Source(6000, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.SetSource(src, 32); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if _, err := f.Step(model.Time(i * 150)); err != nil {
				t.Fatal(err)
			}
			if _, err := f.Submit(i%3, i%3, model.Time(1+i%7), model.Time(i*150)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := f.Step(6000); err != nil {
			t.Fatal(err)
		}
		if err := f.CheckConservation(); err != nil {
			t.Fatal(err)
		}
		return fingerprint(t, f)
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("interleaved Submit + source runs diverged")
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
		if err := f.SetSource(src, 4); err != nil {
			t.Fatal(err)
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

// FuzzFedStreamStep interleaves stepping, explicit submissions and
// migration-driven withdrawals against a streaming source and asserts
// the two invariants everything else rests on: job conservation, and
// determinism — the same op sequence replays to identical bytes.
func FuzzFedStreamStep(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, int64(1))
	f.Add([]byte{2, 2, 2, 9, 0, 7, 1}, int64(3))
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1}, int64(7))
	f.Add([]byte{}, int64(5))
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
			specs := make([]fed.ClusterSpec, len(w.Machines))
			for c := range specs {
				specs[c] = fed.ClusterSpec{Name: fmt.Sprintf("site%d", c), Alg: algFactory("fairshare"), Machines: w.Machines[c]}
			}
			fd, err := fed.New(w.Orgs, specs, fed.Migrating{Inner: fed.FairnessAware{}, Budget: fed.DefaultMigrationBudget}, seed)
			if err != nil {
				t.Fatal(err)
			}
			src, err := sc.Source(6000, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := fd.SetSource(src, 16); err != nil {
				t.Fatal(err)
			}
			for _, b := range ops {
				switch b % 3 {
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
				}
			}
			// Drain everything, including submits released past 6000.
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
			return fingerprint(t, fd)
		}
		if !bytes.Equal(run(), run()) {
			t.Fatal("identical op sequences diverged")
		}
	})
}
