package daemon

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/model"
)

// LoadConfig configures RunLoad, the serving-tier load harness.
type LoadConfig struct {
	// Sessions is the number of concurrent federated sessions to hold
	// open — all of them live in one Manager for the whole run.
	Sessions int
	// PipelineWorkers sizes the advance pipeline (0 = its default).
	PipelineWorkers int
}

// The harness's traffic shape: loadClients goroutines drive the
// sessions; each session gets loadJobs jobs up front and is then
// advanced loadSteps times by loadStepSize ticks.
const (
	loadClients  = 32
	loadJobs     = 4
	loadSteps    = 3
	loadStepSize = model.Time(25)
)

// LoadReport is the harness outcome: sustained throughput through the
// pipeline plus the advance-latency distribution (enqueue to result,
// i.e. queueing included — the latency a serving client would see).
type LoadReport struct {
	Sessions         int
	Advances         int64
	Decisions        int64
	SetupSeconds     float64
	AdvanceSeconds   float64
	ThroughputPerSec float64
	P50Ms            float64
	P95Ms            float64
	P99Ms            float64
	PipelineWakeups  int64
	PipelineBatches  int64
}

// loadSessionConfig is the per-session workload: a small two-cluster
// federation with an overloaded origin, so delegation actually routes
// (every session exercises the fed exchange path, not just an engine).
func loadSessionConfig(seed int64) SessionConfig {
	return SessionConfig{
		Kind:     KindFederation,
		OrgNames: []string{"alpha", "beta"},
		Policy:   "leastloaded",
		Clusters: []ClusterConfig{
			{Name: "origin", Alg: "directcontr", Machines: []int{1, 0}},
			{Name: "peer", Alg: "directcontr", Machines: []int{1, 1}},
		},
		Seed: seed,
	}
}

// RunLoad creates cfg.Sessions concurrent federated sessions in one
// Manager, then drives every session through loadSteps advances via the
// async pipeline, measuring throughput and per-advance latency. It is
// the scale harness behind bench/'s burst probe — the "tens of
// thousands of concurrent sessions in one process" check, not a
// simulation of it.
func RunLoad(cfg LoadConfig) (LoadReport, error) {
	if cfg.Sessions <= 0 {
		return LoadReport{}, fmt.Errorf("daemon: load harness needs at least one session")
	}
	clients := min(loadClients, cfg.Sessions)

	mgr := NewManager()
	pipe := NewPipeline(PipelineOptions{Workers: cfg.PipelineWorkers})
	defer pipe.Close()

	// Partition sessions across clients; each client owns a contiguous
	// slice for both phases.
	type clientState struct {
		sessions  []*Session
		latencies []time.Duration
		decisions int64
		err       error
	}
	states := make([]*clientState, clients)
	bounds := func(c int) (int, int) {
		per := cfg.Sessions / clients
		extra := cfg.Sessions % clients
		lo := c*per + min(c, extra)
		hi := lo + per
		if c < extra {
			hi++
		}
		return lo, hi
	}

	// Phase 1: create every session and submit its workload. All
	// sessions stay live — concurrency here is real, not time-sliced.
	setupStart := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		st := &clientState{}
		states[c] = st
		lo, hi := bounds(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				s, err := mgr.Create(fmt.Sprintf("load-%d", i), loadSessionConfig(int64(i)))
				if err != nil {
					st.err = err
					return
				}
				batch := make([]JobSubmission, loadJobs)
				for j := range batch {
					release := model.Time(3 * j)
					batch[j] = JobSubmission{Cluster: 0, Org: j % 2, Size: 4, Release: &release}
				}
				if _, err := s.Submit(batch); err != nil {
					st.err = err
					return
				}
				st.sessions = append(st.sessions, s)
			}
		}()
	}
	wg.Wait()
	setup := time.Since(setupStart)
	for _, st := range states {
		if st.err != nil {
			return LoadReport{}, st.err
		}
	}

	// Phase 2: every client enqueues one advance step for all of its
	// sessions, then collects the results — so at any instant the
	// pipeline holds on the order of cfg.Sessions requests in flight.
	advanceStart := time.Now()
	for c := 0; c < clients; c++ {
		st := states[c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			type inflight struct {
				ch    <-chan AdvanceResult
				start time.Time
			}
			pending := make([]inflight, len(st.sessions))
			for step := 1; step <= loadSteps; step++ {
				until := model.Time(step) * loadStepSize
				for i, s := range st.sessions {
					pending[i] = inflight{ch: pipe.Enqueue(s, &until), start: time.Now()}
				}
				for _, fl := range pending {
					res := <-fl.ch
					if res.Err != nil && st.err == nil {
						st.err = res.Err
					}
					st.latencies = append(st.latencies, time.Since(fl.start))
					st.decisions += int64(len(res.Decisions))
				}
			}
		}()
	}
	wg.Wait()
	advance := time.Since(advanceStart)
	var latencies []time.Duration
	var decisions int64
	for _, st := range states {
		if st.err != nil {
			return LoadReport{}, st.err
		}
		latencies = append(latencies, st.latencies...)
		decisions += st.decisions
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(q float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		return float64(latencies[int(q*float64(len(latencies)-1))]) / float64(time.Millisecond)
	}
	pstats := pipe.Stats()
	return LoadReport{
		Sessions:         cfg.Sessions,
		Advances:         int64(len(latencies)),
		Decisions:        decisions,
		SetupSeconds:     setup.Seconds(),
		AdvanceSeconds:   advance.Seconds(),
		ThroughputPerSec: float64(len(latencies)) / advance.Seconds(),
		P50Ms:            pct(0.50),
		P95Ms:            pct(0.95),
		P99Ms:            pct(0.99),
		PipelineWakeups:  pstats.Wakeups,
		PipelineBatches:  pstats.Batches,
	}, nil
}
