package fed

import (
	"container/heap"
	"fmt"
	"io"

	"repro/internal/model"
	"repro/internal/trace"
)

// SourceJob is one job a stream yields: where it was handed in, who
// owns it, how big it is and when it becomes available — the arguments
// of one Submit call. Aliased from model so that stream producers
// (internal/gen) need not import this package.
type SourceJob = model.SourceJob

// DefaultSWFSlack is the reorder buffer NewSWFSource uses: real SWF
// archives are submit-ordered up to small local jitter, and a buffer of
// this many records re-sorts any disorder narrower than itself.
const DefaultSWFSlack = 1024

// SWFSource streams a Standard Workload Format archive as federated
// submissions: record submit times become releases, runtimes become
// sizes (the sequential machine model ignores processor counts, as
// trace.ToInstance does), and each user is hashed deterministically to
// a home (origin) cluster and an owning organization — so one real
// archive exercises the whole delegation plane in O(1) memory. A small
// min-heap reorder buffer absorbs the local submit-order jitter real
// archives contain; disorder wider than the slack is an error at the
// pull that detects it.
type SWFSource struct {
	r        *trace.Reader
	clusters int
	orgs     int
	seed     int64
	slack    int
	buf      swfHeap
	primed   bool
	arrived  int64 // file-order index, the heap's tie-break
	done     bool

	// lastEmit/emitted track the stream-order contract: once a record
	// has been emitted, no later pop may carry an earlier submit. err
	// makes any failure sticky — the stream past it is unknowable.
	lastEmit model.Time
	emitted  bool
	err      error
}

// NewSWFSource streams the SWF archive read from r over the given
// federation shape. seed decorrelates the user→(cluster, org) hashing
// between scenarios built from the same archive.
func NewSWFSource(r io.Reader, clusters, orgs int, seed int64) (*SWFSource, error) {
	if clusters < 1 {
		return nil, fmt.Errorf("fed: swf source needs at least one cluster, got %d", clusters)
	}
	if orgs < 1 {
		return nil, fmt.Errorf("fed: swf source needs at least one organization, got %d", orgs)
	}
	return &SWFSource{
		r:        trace.NewReader(r),
		clusters: clusters,
		orgs:     orgs,
		seed:     seed,
		slack:    DefaultSWFSlack,
	}, nil
}

// Next returns the next job, ok=false at the end of the archive, or an
// error; releases are nondecreasing. Disorder wider than the reorder slack is
// detected here, at the pull: the record about to be emitted cannot
// precede one already emitted, or the downstream federation would see
// a release going backwards mid-stream. Errors are sticky — a source
// that has failed once keeps failing, because every record after the
// failure point is suspect.
func (s *SWFSource) Next() (SourceJob, bool, error) {
	if s.err != nil {
		return SourceJob{}, false, s.err
	}
	if !s.primed {
		s.primed = true
		for len(s.buf) < s.slack {
			if err := s.readOne(); err != nil {
				s.err = err
				return SourceJob{}, false, err
			}
			if s.done {
				break
			}
		}
	}
	if len(s.buf) == 0 {
		return SourceJob{}, false, nil
	}
	it := heap.Pop(&s.buf).(swfItem)
	if s.emitted && it.job.Submit < s.lastEmit {
		s.err = fmt.Errorf("fed: swf source: archive disorder exceeds the reorder slack of %d records: submit %d surfaced after submit %d was already emitted (raise SetSlack or pre-sort the archive)",
			s.slack, it.job.Submit, s.lastEmit)
		return SourceJob{}, false, s.err
	}
	s.lastEmit, s.emitted = it.job.Submit, true
	if !s.done {
		if err := s.readOne(); err != nil {
			s.err = err
			return SourceJob{}, false, err
		}
	}
	return SourceJob{
		Cluster: s.userHash(it.job.User, 0x5348, s.clusters), // distinct salts: a user's
		Org:     s.userHash(it.job.User, 0x4f52, s.orgs),     // site and owner hash independently
		Size:    it.job.Runtime,
		Release: it.job.Submit,
	}, true, nil
}

// readOne pushes the next usable archive record into the reorder buffer.
func (s *SWFSource) readOne() error {
	j, err := s.r.Next()
	if err == io.EOF {
		s.done = true
		return nil
	}
	if err != nil {
		return err
	}
	heap.Push(&s.buf, swfItem{job: j, idx: s.arrived})
	s.arrived++
	return nil
}

// userHash maps an archive user id into [0, n) with a SplitMix64-style
// mix over (seed, user, salt) — deterministic without pre-scanning the
// archive's user universe, which a streaming source cannot do.
func (s *SWFSource) userHash(user int, salt uint64, n int) int {
	x := uint64(s.seed)*0x9E3779B97F4A7C15 + uint64(user+1)*0xBF58476D1CE4E5B9 + salt
	x ^= x >> 30
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(n))
}

// swfItem is one buffered archive record; idx is its file order, the
// deterministic tie-break for equal submit times.
type swfItem struct {
	job trace.Job
	idx int64
}

// swfHeap is a min-heap on (Submit, file order).
type swfHeap []swfItem

func (h swfHeap) Len() int { return len(h) }
func (h swfHeap) Less(i, j int) bool {
	if h[i].job.Submit != h[j].job.Submit {
		return h[i].job.Submit < h[j].job.Submit
	}
	return h[i].idx < h[j].idx
}
func (h swfHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *swfHeap) Push(x any)   { *h = append(*h, x.(swfItem)) }
func (h *swfHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
