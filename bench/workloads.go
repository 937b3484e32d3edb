package main

import (
	"fmt"

	"repro/internal/ctrl"
	"repro/internal/daemon"
	"repro/internal/model"
)

// workload is one traffic mix: which sessions exist, how the daemon is
// booted for them, and the shape of one round of one session. Every
// number here is part of the benchmark's definition — changing one
// makes results incomparable with earlier runs.
type workload struct {
	name string
	why  string

	sessions int
	// Daemon boot flags: pipeline is -pipeline-workers (0 = the handler
	// advances synchronously), store adds -checkpoint-dir and
	// -flush-interval 50ms.
	pipeline int
	store    bool

	// rounds is the frozen measured run length: rounds per session per
	// 10 s of -seconds, sized on the 2-core reference box at the commit
	// that defined the benchmark. The run length is an operation count,
	// not a duration, so both sides of a later comparison do the same
	// work.
	rounds int

	// One round of one session: one submission of `jobs` jobs with
	// sizes in [sizeLo, sizeHi] released inside the next `spread`
	// ticks, then one advance of `ticks`. preload jobs are submitted
	// once at set-up so machines are busy from the first measured round.
	ticks          model.Time
	jobs           int
	sizeLo, sizeHi model.Time
	spread         model.Time
	preload        int
	orgs           int
	clusters       int // federation members; 0 = single-cluster session

	// Extra operations, staggered over sessions so every sweep of the
	// session table carries the same mix: a session runs the extra at
	// the end of round r when (r+session) % every == every-1.
	stateEvery    int // GET state
	ckptEvery     int // GET checkpoint → POST restore of it
	recreateEvery int // DELETE → re-create

	config func(sess int, seed int64) daemon.SessionConfig
}

// warmRounds are the untimed rounds every session runs at set-up.
const warmRounds = 2

// measuredRounds scales the frozen round count to -seconds.
func (w *workload) measuredRounds(seconds float64) int {
	n := int(float64(w.rounds)*seconds/10 + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// sessionID names session i; ids sort in creation order so the store's
// name-ordered reload matches.
func sessionID(i int) string { return fmt.Sprintf("b%04d", i) }

func workloads() []*workload {
	return []*workload{
		{
			name:     "thin-http",
			why:      "1024 fairshare sessions: a policy step is ~40 ns, so sockets, net/http, JSON, pipeline hand-off and session lock are nearly the whole request; daemon/net changes show here, core/fed changes must not",
			sessions: 1024, pipeline: 2,
			rounds: 95,
			ticks:  5, jobs: 1, sizeLo: 10, sizeHi: 40, spread: 5, preload: 6,
			orgs:       3,
			stateEvery: 4,
			config: func(_ int, seed int64) daemon.SessionConfig {
				return daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "fairshare", Orgs: 3, Machines: 6, Seed: seed}
			},
		},
		{
			name:     "shapley-k8",
			why:      "16 REF + 16 RAND(N=15) sessions, 8 orgs / 16 machines: 256 coalitions per decision put core + shapley + sim at several times the HTTP floor; stepper and Shapley work shows here and nowhere else",
			sessions: 32,
			rounds:   147,
			ticks:    100, jobs: 40, sizeLo: 1, sizeHi: 30, spread: 100, preload: 16,
			orgs:       8,
			stateEvery: 4, recreateEvery: 32,
			config: func(sess int, seed int64) daemon.SessionConfig {
				cfg := daemon.SessionConfig{Kind: daemon.KindSingle, Orgs: 8, Machines: 16, Split: "zipf", Seed: seed}
				if sess%2 == 0 {
					cfg.Alg, cfg.RefDriver = "ref", "heap"
				} else {
					cfg.Alg, cfg.RandSamples = "rand", 15
				}
				return cfg
			},
		},
		{
			name:     "fed-gated",
			why:      "64 federations of 8 nbs members x 6 orgs, fednbs-migrate, staleness 25, token-bucket gate: fed routing + migration, ctrl and bargain work with no exact Shapley; a Shapley change must not move it",
			sessions: 64,
			rounds:   610,
			ticks:    40, jobs: 32, sizeLo: 10, sizeHi: 50, spread: 40, preload: 24,
			orgs: 6, clusters: 8,
			stateEvery: 4, recreateEvery: 32,
			config: func(_ int, seed int64) daemon.SessionConfig {
				cfg := daemon.SessionConfig{
					Kind:      daemon.KindFederation,
					Policy:    "fednbs-migrate",
					Staleness: 25,
					Seed:      seed,
					Admission: &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 3, Period: 10, Burst: 6, MaxAttempts: 3},
				}
				for o := 0; o < 6; o++ {
					cfg.OrgNames = append(cfg.OrgNames, fmt.Sprintf("org%d", o))
				}
				for c := 0; c < 8; c++ {
					// Four machines per member, owned by a rotating four
					// of the six organizations.
					machines := make([]int, 6)
					for o := 0; o < 6; o++ {
						if (o+c)%3 != 0 {
							machines[o] = 1
						}
					}
					cfg.Clusters = append(cfg.Clusters, daemon.ClusterConfig{Name: fmt.Sprintf("m%d", c), Alg: "nbs", Machines: machines})
				}
				return cfg
			},
		},
		{
			name:     "durable-churn",
			why:      "256 directcontr sessions on a flushed store with reads, checkpoint/restore and re-creation: thin-http's daemon layer doing writes and recovery; only here do envelope encode, fsync and LoadStore run",
			sessions: 256, pipeline: 2, store: true,
			rounds: 164,
			ticks:  10, jobs: 4, sizeLo: 5, sizeHi: 25, spread: 10, preload: 8,
			orgs:       4,
			stateEvery: 4, ckptEvery: 16, recreateEvery: 32,
			config: func(_ int, seed int64) daemon.SessionConfig {
				return daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "directcontr", Orgs: 4, Machines: 8, Split: "uniform", Seed: seed}
			},
		},
	}
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// smoke shrinks a workload to a few sessions and rounds — the same
// code paths in about a second, for the harness's own tests.
func (w *workload) smoke() *workload {
	s := *w
	s.sessions = w.sessions / 16
	if s.sessions < 4 {
		s.sessions = 4
	}
	s.rounds = 6
	// Shorter extra-op periods so six rounds still reach every kind.
	if s.ckptEvery > 0 {
		s.ckptEvery = 3
	}
	if s.recreateEvery > 0 {
		s.recreateEvery = 5
	}
	return &s
}
