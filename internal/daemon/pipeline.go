package daemon

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// ErrPipelineClosed is returned for advances enqueued onto (or still
// pending in) a closed pipeline.
var ErrPipelineClosed = errors.New("daemon: advance pipeline closed")

// burst is the per-session advance rate limit: the most requests one
// session may consume per queue pass before the worker moves on to its
// other sessions. A hot session with a deep backlog therefore shares
// its worker round-robin instead of starving every session hashed onto
// it.
const burst = 16

// PipelineOptions configures NewPipeline.
type PipelineOptions struct {
	// Workers is the number of worker goroutines. A session id hashes
	// onto one worker, so requests for one session always serialize
	// there and different workers advance in parallel. 0 means
	// GOMAXPROCS.
	Workers int
}

// AdvanceResult is the outcome of one asynchronous advance.
type AdvanceResult struct {
	Now       model.Time
	Decisions []Decision
	Err       error
}

type advanceReq struct {
	sess  *Session
	until *model.Time
	done  chan AdvanceResult
}

// pipelineWorker is one worker's request queue: per-session FIFOs plus
// the round-robin order sessions are drained in.
type pipelineWorker struct {
	mu      sync.Mutex
	pending map[string][]advanceReq
	order   []string
	notify  chan struct{}
}

// Pipeline is the async advance path of the serving tier: requests
// enqueue per session, workers wake up and batch many sessions per
// wakeup, bounded to burst advances per session per pass. Results are
// delivered on per-request channels; Advance is the synchronous
// convenience wrapper the HTTP handler uses.
//
// The amortization target: at high session counts each worker wakeup
// drains a batch spanning many sessions, so scheduler wakeups and
// channel operations are paid once per batch instead of once per
// request.
type Pipeline struct {
	workers []*pipelineWorker
	wg      sync.WaitGroup
	stop    chan struct{}
	closed  atomic.Bool

	advances atomic.Int64
	wakeups  atomic.Int64
	batches  atomic.Int64
}

// PipelineStats are cumulative counters: total advances processed,
// worker wakeups and non-empty queue passes (batches). Advances per
// batch is the amortization the pipeline exists for. Coalesced is
// always 0: every queued request is one Session.Advance, and the field
// stays declared only for bench/trace.go's daemon.pipeline.
// coalesced_ratio row, which read 0 on every committed run.
type PipelineStats struct {
	Advances  int64
	Wakeups   int64
	Batches   int64
	Coalesced int64
}

// NewPipeline starts the workers and returns the running pipeline.
// Close it when done.
func NewPipeline(opts PipelineOptions) *Pipeline {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pipeline{
		workers: make([]*pipelineWorker, workers),
		stop:    make(chan struct{}),
	}
	for i := range p.workers {
		p.workers[i] = &pipelineWorker{
			pending: make(map[string][]advanceReq),
			notify:  make(chan struct{}, 1),
		}
		p.wg.Add(1)
		go p.run(p.workers[i])
	}
	return p
}

// workerFor maps a session onto its worker by the FNV-1a hash of its id.
func (p *Pipeline) workerFor(id string) *pipelineWorker {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return p.workers[h%uint32(len(p.workers))]
}

// Enqueue submits an asynchronous advance (until nil = next event) and
// returns the channel its result is delivered on (buffered: the worker
// never blocks on a slow consumer). Requests for one session complete
// in enqueue order.
func (p *Pipeline) Enqueue(sess *Session, until *model.Time) <-chan AdvanceResult {
	done := make(chan AdvanceResult, 1)
	w := p.workerFor(sess.ID())
	w.mu.Lock()
	// The closed check must happen under the queue lock: Close sets
	// the flag before workers drain, so either this request lands
	// before the drain (and is failed by it) or it observes closed.
	if p.closed.Load() {
		w.mu.Unlock()
		done <- AdvanceResult{Err: ErrPipelineClosed}
		return done
	}
	id := sess.ID()
	if _, queued := w.pending[id]; !queued {
		w.order = append(w.order, id)
	}
	w.pending[id] = append(w.pending[id], advanceReq{sess: sess, until: until, done: done})
	w.mu.Unlock()
	select {
	case w.notify <- struct{}{}:
	default:
	}
	return done
}

// Advance runs one advance through the pipeline synchronously.
func (p *Pipeline) Advance(sess *Session, until *model.Time) (model.Time, []Decision, error) {
	res := <-p.Enqueue(sess, until)
	return res.Now, res.Decisions, res.Err
}

// Stats snapshots the pipeline's cumulative counters.
func (p *Pipeline) Stats() PipelineStats {
	return PipelineStats{
		Advances: p.advances.Load(),
		Wakeups:  p.wakeups.Load(),
		Batches:  p.batches.Load(),
	}
}

// Close stops the workers. Pending and in-flight enqueues fail with
// ErrPipelineClosed; Close waits for the workers to exit.
func (p *Pipeline) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.stop)
	p.wg.Wait()
}

func (p *Pipeline) run(w *pipelineWorker) {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			w.fail(ErrPipelineClosed)
			return
		case <-w.notify:
		}
		for {
			batch := w.take()
			if len(batch) == 0 {
				break
			}
			p.batches.Add(1)
			for _, req := range batch {
				now, decs, err := req.sess.Advance(req.until)
				req.done <- AdvanceResult{Now: now, Decisions: decs, Err: err}
			}
			p.advances.Add(int64(len(batch)))
			// Re-check stop between passes so a deep backlog cannot
			// delay shutdown for its full length.
			select {
			case <-p.stop:
				w.fail(ErrPipelineClosed)
				return
			default:
			}
		}
		p.wakeups.Add(1)
	}
}

// take drains one pass of the queue: for each queued session, in
// round-robin order, up to burst requests; sessions with a deeper
// backlog keep their remainder and go again next pass after everyone
// else has been served.
func (w *pipelineWorker) take() []advanceReq {
	w.mu.Lock()
	defer w.mu.Unlock()
	var batch []advanceReq
	var keep []string
	for _, id := range w.order {
		q := w.pending[id]
		n := min(burst, len(q))
		batch = append(batch, q[:n]...)
		if len(q) > n {
			w.pending[id] = q[n:]
			keep = append(keep, id)
		} else {
			delete(w.pending, id)
		}
	}
	w.order = keep
	return batch
}

// fail drains every pending request with err (the shutdown path).
func (w *pipelineWorker) fail(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, q := range w.pending {
		for _, req := range q {
			req.done <- AdvanceResult{Err: err}
		}
		delete(w.pending, id)
	}
	w.order = nil
}
