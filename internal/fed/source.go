package fed

import (
	"container/heap"
	"errors"
	"fmt"
	"io"

	"repro/internal/model"
	"repro/internal/trace"
)

// ErrSourceFailed tags every sticky job-source failure — a pull error
// or a stream-contract violation. The workload past the failure point
// is unknowable, so the federation refuses to step until rebuilt;
// callers mapping errors to transport status codes can errors.Is
// against it to tell broken federation state from a bad request.
var ErrSourceFailed = errors.New("fed: job source failed")

// ErrNoSource reports a Step on a federation restored from a streaming
// checkpoint before SetSource re-attached the source: the run cannot
// continue as-is, but re-attaching repairs it — a conflict with the
// session's current state, not a malformed request.
var ErrNoSource = errors.New("fed: streaming checkpoint has no source attached")

// SourceJob is one job yielded by a JobSource: where it was handed in,
// who owns it, how big it is and when it becomes available — the
// streaming counterpart of a Submit call. Aliased from model so that
// source producers (internal/gen) need not import this package.
type SourceJob = model.SourceJob

// JobSource is the pull-based ingestion contract consumed by
// SetSource: jobs in nondecreasing Release order from a deterministic,
// replayable stream. See model.JobSource for the full contract.
type JobSource = model.JobSource

// DefaultSourceWindow is the lookahead window SetSource uses when the
// caller passes window <= 0: deep enough that release-instant batches
// rarely force an overshoot pull, small enough that memory stays flat
// on multi-million-job traces.
const DefaultSourceWindow = 4096

// SetSource attaches a streaming job source with the given lookahead
// window (jobs resident in the pending queue at a time; <= 0 selects
// DefaultSourceWindow). Jobs are pulled and accepted lazily as stepping
// needs them, with sequence numbers assigned in stream order — the same
// numbering an eager Submit loop over the stream would produce, so a
// streamed run is byte-identical to a materialized run of the same
// stream (TestStreamingMatchesEager). The window is a memory/lookahead
// knob only: decisions never depend on it, because a release instant's
// batch is always completed before it routes.
//
// On a federation restored from a streaming checkpoint, SetSource
// fast-forwards the (replayable) source past the consumed prefix and
// resumes mid-stream; the restored window is superseded by the one
// given here. Explicit Submits may still be interleaved with a source.
func (f *Federation) SetSource(src JobSource, window int) error {
	if src == nil {
		return fmt.Errorf("fed: nil job source")
	}
	if f.source != nil {
		return fmt.Errorf("fed: a job source is already attached")
	}
	if window <= 0 {
		window = DefaultSourceWindow
	}
	// Fast-forward past the prefix a restored checkpoint already
	// consumed: those jobs are accounted in the pending queue, the
	// members, or the decision log.
	for skipped := int64(0); skipped < f.srcCursor; skipped++ {
		_, ok, err := src.Next()
		if err != nil {
			return fmt.Errorf("fed: job source failed %d jobs into a checkpoint cursor of %d: %w", skipped, f.srcCursor, err)
		}
		if !ok {
			return fmt.Errorf("fed: job source drained %d jobs into a checkpoint cursor of %d", skipped, f.srcCursor)
		}
	}
	f.source = src
	f.srcWindow = window
	f.srcNeeded = false
	return f.fill()
}

// SourceCursor returns how many jobs have been consumed from the
// attached source (0 when none is attached).
func (f *Federation) SourceCursor() int64 { return f.srcCursor }

// fill tops the pending queue up to the lookahead window. Source
// errors are sticky: once a pull fails the federation refuses to step
// further, because the job stream past the failure is unknowable.
func (f *Federation) fill() error {
	if f.source == nil || f.srcDone || f.srcErr != nil {
		return f.srcErr
	}
	for len(f.pending) < f.srcWindow {
		if err := f.pullOne(); err != nil || f.srcDone {
			return err
		}
	}
	return nil
}

// fillThrough keeps pulling until every job releasing at or before t is
// resident — the batch-completeness guarantee: a release instant routes
// only once all of its jobs are pending, so the exchange snapshot, the
// per-instant memo and therefore every decision are independent of the
// window size. Because sources are nondecreasing in release, the first
// pulled job past t proves completeness; it stays pending.
func (f *Federation) fillThrough(t model.Time) error {
	if f.source == nil || f.srcErr != nil {
		return f.srcErr
	}
	for !f.srcDone && f.srcLast <= t {
		if err := f.pullOne(); err != nil {
			return err
		}
	}
	return nil
}

// pullOne draws and accepts a single job from the source; callers have
// checked the source is not drained.
func (f *Federation) pullOne() error {
	j, ok, err := f.source.Next()
	if err == nil && ok {
		err = f.acceptSourceJob(j)
	}
	if err != nil {
		f.srcErr = fmt.Errorf("%w: %w", ErrSourceFailed, err)
		return f.srcErr
	}
	f.srcDone = !ok
	return nil
}

// acceptSourceJob checks and enqueues one pulled job — what Submit
// does, plus the stream-order contract.
func (f *Federation) acceptSourceJob(j SourceJob) error {
	if err := f.checkJob(j); err != nil {
		return fmt.Errorf("fed: job source yielded %w", err)
	}
	if j.Release < f.srcLast {
		return fmt.Errorf("fed: job source release went backwards, from %d to %d; sources must be nondecreasing in release",
			f.srcLast, j.Release)
	}
	f.srcLast = j.Release
	f.accept(j)
	f.srcCursor++
	return nil
}

// SliceSource serves a pre-built job slice as a JobSource — the adapter
// for in-memory streams (tests, small scenarios). The slice must be in
// nondecreasing Release order; it is served as-is, not copied.
type SliceSource struct {
	jobs []SourceJob
	i    int
}

// NewSliceSource wraps jobs as a replayable source.
func NewSliceSource(jobs []SourceJob) *SliceSource { return &SliceSource{jobs: jobs} }

// Next implements JobSource.
func (s *SliceSource) Next() (SourceJob, bool, error) {
	if s.i >= len(s.jobs) {
		return SourceJob{}, false, nil
	}
	j := s.jobs[s.i]
	s.i++
	return j, true, nil
}

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

// SetSlack overrides the reorder buffer size (records held back to
// re-sort local submit-order jitter). Call before the first Next.
func (s *SWFSource) SetSlack(n int) {
	if n < 1 {
		n = 1
	}
	s.slack = n
}

// Skipped returns the number of unusable archive records skipped so far.
func (s *SWFSource) Skipped() int { return s.r.Skipped() }

// Next implements JobSource. Disorder wider than the reorder slack is
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
