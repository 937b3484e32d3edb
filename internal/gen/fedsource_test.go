package gen

import (
	"testing"

	"repro/internal/model"

	"repro/internal/stats"
)

func drainFedSource(t *testing.T, s *FedSource) []model.SourceJob {
	t.Helper()
	var jobs []model.SourceJob
	for {
		j, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return jobs
		}
		jobs = append(jobs, j)
	}
}

// TestFedSourceReplayable: the streaming scenario source is a pure
// function of (scenario, horizon, seed) — two drains are identical —
// and yields a valid stream: nondecreasing releases inside the
// horizon, valid (cluster, org, size) coordinates.
func TestFedSourceReplayable(t *testing.T) {
	sc := DefaultFedScenario()
	sc.Base = sc.Base.Scale(0.12)
	const horizon = 6000
	mk := func(seed int64) *FedSource {
		src, err := sc.Source(horizon, seed)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	jobs := drainFedSource(t, mk(11))
	if len(jobs) < 20 {
		t.Fatalf("source yielded only %d jobs — too sparse to exercise anything", len(jobs))
	}
	for i, j := range jobs {
		if i > 0 && j.Release < jobs[i-1].Release {
			t.Fatalf("release order violated at %d: %d after %d", i, j.Release, jobs[i-1].Release)
		}
		if j.Release < 0 || j.Release >= horizon {
			t.Fatalf("job %d released at %d, outside [0, %d)", i, j.Release, horizon)
		}
		if j.Cluster < 0 || j.Cluster >= sc.Clusters || j.Org < 0 || j.Org >= sc.Orgs {
			t.Fatalf("job %d mapped outside the %d×%d grid: %+v", i, sc.Clusters, sc.Orgs, j)
		}
		if j.Size < 1 {
			t.Fatalf("job %d has size %d", i, j.Size)
		}
	}
	again := drainFedSource(t, mk(11))
	if len(again) != len(jobs) {
		t.Fatalf("replay yielded %d jobs, first drain %d", len(again), len(jobs))
	}
	for i := range jobs {
		if jobs[i] != again[i] {
			t.Fatalf("replay diverged at job %d: %+v vs %+v", i, jobs[i], again[i])
		}
	}
	other := drainFedSource(t, mk(12))
	same := len(other) == len(jobs)
	if same {
		for i := range jobs {
			if jobs[i] != other[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 11 and 12 produced identical streams")
	}
}

// TestFedSourceCoversGrid: every cluster sees traffic and the diurnal
// keep-filter leaves a workload of the same order as the eager
// generator's (the two samplers share the calibration, not the rng
// schedule, so counts are close but not equal).
func TestFedSourceCoversGrid(t *testing.T) {
	sc := DefaultFedScenario()
	sc.Base = sc.Base.Scale(0.12)
	src, err := sc.Source(6000, 11)
	if err != nil {
		t.Fatal(err)
	}
	jobs := drainFedSource(t, src)
	perCluster := make([]int, sc.Clusters)
	for _, j := range jobs {
		perCluster[j.Cluster]++
	}
	for c, n := range perCluster {
		if n == 0 {
			t.Errorf("cluster %d received no jobs", c)
		}
	}
	w, err := sc.Generate(6000, stats.NewRand(11))
	if err != nil {
		t.Fatal(err)
	}
	eager := 0
	for _, js := range w.Jobs {
		eager += len(js)
	}
	if streamed := len(jobs); streamed < eager/2 || streamed > eager*2 {
		t.Errorf("streamed %d jobs vs %d eager — the samplers drifted apart in offered load", streamed, eager)
	}
}

// TestFedSourceRejectsInvalidScenario mirrors Generate's validation.
func TestFedSourceRejectsInvalidScenario(t *testing.T) {
	sc := DefaultFedScenario()
	sc.Clusters = 0
	if _, err := sc.Source(6000, 1); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}
