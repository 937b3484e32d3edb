package gen

import (
	"container/heap"
	"fmt"
	"math/rand"

	"repro/internal/model"
	"repro/internal/stats"
)

// OrgNames returns the scenario's organization-name universe — the
// same names Generate puts in FedWorkload.Orgs — so streaming callers
// can build a federation from (OrgNames, MachineGrid) without ever
// materializing a workload.
func (s FedScenario) OrgNames() []string {
	names := make([]string, s.Orgs)
	for o := range names {
		names[o] = fmt.Sprintf("org%d", o)
	}
	return names
}

// FedSource streams a FedScenario job by job: each user is an
// independent lazy burst process on its own decorrelated substream
// (stats.NewStreamRand), and a release-keyed min-heap merges the user
// processes into one globally nondecreasing job stream. Memory is
// O(Users), independent of horizon and therefore of trace length.
//
// The stream is deterministic: two sources built from the same
// (scenario, horizon, seed) yield identical streams. It is a workload
// of the scenario's family — same burst structure, size distribution,
// diurnal thinning, cluster/org homing distributions — but not
// byte-identical to Generate's output: the batch generator draws every
// user from one shared rng in trace order, which is exactly the
// coupling a lazy per-user merge cannot replay.
type FedSource struct {
	sc      FedScenario
	horizon model.Time
	seed    int64

	gapMean        float64
	clusterWeights []float64

	users []fedUser
	h     fedUserHeap
}

// fedUser is one user's lazy burst process.
type fedUser struct {
	rng     *rand.Rand
	cluster int
	org     int
	t       model.Time // next candidate submit instant
	burst   int        // jobs left in the current burst (0 = draw a new burst)
	staged  model.SourceJob
	ok      bool
}

// Source returns a streaming generator of the scenario over
// [0, horizon). seed decorrelates scenario instances, playing the role
// Generate's rng argument does for the batch path.
func (s FedScenario) Source(horizon model.Time, seed int64) (*FedSource, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	src := &FedSource{
		sc:             s,
		horizon:        horizon,
		seed:           seed,
		gapMean:        s.Base.gapMean(horizon),
		clusterWeights: stats.ZipfWeights(s.Clusters, s.LoadSkew),
	}
	src.users = make([]fedUser, s.Base.Users)
	for u := range src.users {
		fu := &src.users[u]
		fu.rng = stats.NewStreamRand(seed, int64(u))
		fu.cluster = weightedPick(fu.rng, src.clusterWeights)
		fu.org = fu.rng.Intn(s.Orgs)
		// First session starts at a uniform offset so users are not
		// synchronized at t=0 (as in Family.Generate).
		fu.t = model.Time(fu.rng.Float64() * src.gapMean)
		src.advance(fu)
		if fu.ok {
			heap.Push(&src.h, fedUserRef{at: fu.staged.Release, u: u})
		}
	}
	return src, nil
}

// Next yields the next job, or ok=false at the end of the stream: pop
// the earliest staged job, restage its user, and re-insert. Ties break
// on user index, a fixed key, so the merge order is deterministic.
func (s *FedSource) Next() (model.SourceJob, bool, error) {
	if len(s.h) == 0 {
		return model.SourceJob{}, false, nil
	}
	ref := s.h[0]
	fu := &s.users[ref.u]
	job := fu.staged
	s.advance(fu)
	if fu.ok {
		s.h[0] = fedUserRef{at: fu.staged.Release, u: ref.u}
		heap.Fix(&s.h, 0)
	} else {
		heap.Pop(&s.h)
	}
	return job, true, nil
}

// advance generates the user's next surviving job: candidates follow
// the family's burst process (geometric burst lengths, exponential
// think times and session gaps) and each candidate is thinned by the
// home cluster's phase-shifted diurnal rate, consuming the user's own
// rng — one draw per candidate, as the batch generator does.
func (s *FedSource) advance(fu *fedUser) {
	fu.ok = false
	for fu.t < s.horizon {
		if fu.burst == 0 {
			fu.burst = stats.Geometric(fu.rng, s.sc.Base.SessionJobs)
		}
		at := fu.t
		size := s.sc.Base.Size.Draw(fu.rng)
		fu.burst--
		fu.t += model.Time(stats.Exponential(fu.rng, s.sc.Base.ThinkTime)) + 1
		if fu.burst == 0 {
			fu.t += model.Time(stats.Exponential(fu.rng, s.gapMean))
		}
		if s.sc.keep(fu.cluster, at, fu.rng) {
			fu.staged = model.SourceJob{Cluster: fu.cluster, Org: fu.org, Size: size, Release: at}
			fu.ok = true
			return
		}
	}
}

// fedUserRef is one heap entry: a user's staged release instant and
// index.
type fedUserRef struct {
	at model.Time
	u  int
}

// fedUserHeap is a min-heap on (release, user index).
type fedUserHeap []fedUserRef

func (h fedUserHeap) Len() int { return len(h) }
func (h fedUserHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].u < h[j].u
}
func (h fedUserHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *fedUserHeap) Push(x any)   { *h = append(*h, x.(fedUserRef)) }
func (h *fedUserHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
