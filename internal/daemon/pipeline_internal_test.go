package daemon

import "testing"

// TestWorkerTakeRoundRobin pins the pipeline's batching and
// rate-limiting semantics deterministically: one queue pass serves
// every queued session at most burst requests, in round-robin order,
// and a hot session's backlog survives to later passes instead of
// starving its worker — the "one hot session cannot starve the others"
// guarantee, tested at the queue it is implemented in.
func TestWorkerTakeRoundRobin(t *testing.T) {
	w := &pipelineWorker{pending: make(map[string][]advanceReq)}
	enqueue := func(id string, n int) {
		if _, queued := w.pending[id]; !queued {
			w.order = append(w.order, id)
		}
		for i := 0; i < n; i++ {
			w.pending[id] = append(w.pending[id], advanceReq{sess: &Session{id: id}})
		}
	}
	enqueue("hot", 2*burst+2) // a deep backlog...
	enqueue("cold", 2)        // ...and a session that arrived after it

	batch := w.take()
	// First pass: burst from hot, everything from cold — cold is fully
	// served while hot still has burst+2 queued.
	ids := func(batch []advanceReq) map[string]int {
		count := map[string]int{}
		for _, req := range batch {
			count[req.sess.ID()]++
		}
		return count
	}
	if got := ids(batch); got["hot"] != burst || got["cold"] != 2 || len(batch) != burst+2 {
		t.Fatalf("first pass served %v, want hot=%d cold=2", got, burst)
	}
	// Hot's remainder drains over the following passes; a session that
	// shows up meanwhile is served in the same pass, not behind the
	// whole backlog.
	enqueue("late", 1)
	if got := ids(w.take()); got["hot"] != burst || got["late"] != 1 {
		t.Fatalf("second pass served %v, want hot=%d late=1", got, burst)
	}
	if got := ids(w.take()); got["hot"] != 2 || len(got) != 1 {
		t.Fatalf("third pass served %v, want the remaining hot=2", got)
	}
	if batch := w.take(); len(batch) != 0 || len(w.pending) != 0 || len(w.order) != 0 {
		t.Fatalf("queue not empty after draining: batch=%d pending=%d order=%d", len(batch), len(w.pending), len(w.order))
	}
}
