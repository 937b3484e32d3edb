package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/daemon"
	"repro/internal/model"
)

// lanes is the closed loop's width: two keep-alive connections, each
// sending its next request only after the previous reply. The clients
// of a scheduling daemon are cluster front-ends that wait for each
// answer, and the reference box has two cores.
const lanes = 2

// step is one planned operation. id is shared by every depth that
// replays the step, so spans of one operation line up across layers.
type step struct {
	id   int32
	sess int32
	op   op
}

// plan is the whole run, generated up front from (seed, workload): the
// set-up steps (create, preload, warm-up rounds) and the measured laps
// of each lane. Lane l owns sessions [l·S/lanes, (l+1)·S/lanes) and
// walks them round-robin, one round each per sweep.
type plan struct {
	w      *workload
	seed   int64
	rounds int        // measured rounds per session
	setup  [][]step   // [lane]
	laps   [][][]step // [lap][lane]
	ops    int        // measured steps
}

// lapTarget is how many laps a measured phase is cut into. Each lap
// yields one value of every metric and the run reports their median,
// so a burst of interference spoils a few laps, not the result.
const lapTarget = 15

func newPlan(w *workload, seed int64, rounds int) *plan {
	p := &plan{w: w, seed: seed, rounds: rounds, setup: make([][]step, lanes)}
	var id int32
	add := func(dst *[]step, sess int, ops []op) {
		for _, o := range ops {
			*dst = append(*dst, step{id: id, sess: int32(sess), op: o})
			id++
		}
	}
	own := func(l int) (int, int) { return l * w.sessions / lanes, (l + 1) * w.sessions / lanes }
	for l := 0; l < lanes; l++ {
		lo, hi := own(l)
		for s := lo; s < hi; s++ {
			add(&p.setup[l], s, []op{{kind: opCreate}})
			add(&p.setup[l], s, w.preloadOps(seed, s))
		}
		for r := 0; r < warmRounds; r++ {
			for s := lo; s < hi; s++ {
				add(&p.setup[l], s, w.roundOps(seed, s, r))
			}
		}
	}
	nLaps := lapTarget
	if rounds < nLaps {
		nLaps = rounds
	}
	for lap := 0; lap < nLaps; lap++ {
		from, to := warmRounds+lap*rounds/nLaps, warmRounds+(lap+1)*rounds/nLaps
		row := make([][]step, lanes)
		for l := 0; l < lanes; l++ {
			lo, hi := own(l)
			for r := from; r < to; r++ {
				for s := lo; s < hi; s++ {
					add(&row[l], s, w.roundOps(seed, s, r))
				}
			}
			p.ops += len(row[l])
		}
		p.laps = append(p.laps, row)
	}
	return p
}

// count is the number of measured steps of one kind.
func (p *plan) count(k opKind) int {
	n := 0
	for _, lap := range p.laps {
		for _, steps := range lap {
			for i := range steps {
				if steps[i].op.kind == k {
					n++
				}
			}
		}
	}
	return n
}

// digest is what the oracle compares per session: an FNV-1a hash over
// the (job, org, cluster, machine, at) of every decision in the order
// the session made them, and another over every state document read.
type digest struct {
	dec       uint64
	state     uint64
	decisions int
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newDigests(n int) []digest {
	d := make([]digest, n)
	for i := range d {
		d[i] = digest{dec: fnvOffset, state: fnvOffset}
	}
	return d
}

func fold64(h uint64, v int64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime
	}
	return h
}

func (d *digest) addDecision(job int64, org, cluster, machine int, at model.Time) {
	h := fold64(d.dec, job)
	h = fold64(h, int64(org))
	h = fold64(h, int64(cluster))
	h = fold64(h, int64(machine))
	d.dec = fold64(h, int64(at))
	d.decisions++
}

func (d *digest) addDecisions(decs []daemon.Decision) {
	for _, x := range decs {
		d.addDecision(x.Job, x.Org, x.Cluster, x.Machine, x.At)
	}
}

func (d *digest) addState(body []byte) {
	h := d.state
	for _, b := range body {
		h ^= uint64(b)
		h *= fnvPrime
	}
	d.state = h
}

// advanceReply is the wire form of an advance response.
type advanceReply struct {
	Now       model.Time        `json:"now"`
	Decisions []daemon.Decision `json:"decisions"`
}

// target is one depth of the stack a plan can be executed against.
// exec runs one step for lane ln and returns the interval of the call
// into the layer under test — request construction and the oracle's
// bookkeeping stay outside it.
type target interface {
	depth() string
	exec(ln *lane, st *step) (t0, t1 time.Time, err error)
}

// span is one traced operation at one depth.
type span struct {
	Layer string `json:"layer"`
	Op    int32  `json:"op"`
	Kind  string `json:"kind"`
	Sess  int32  `json:"sess"`
	Start int64  `json:"start_ns"` // since the run's trace epoch
	End   int64  `json:"end_ns"`
}

// lane is one closed-loop client's private state.
type lane struct {
	idx  int
	dig  []digest            // shared, indexed by session; a lane touches only its own sessions
	ckpt map[int32][]byte    // last checkpoint fetched per session, for the restore that follows
	lat  [numKinds][]float64 // latencies of the current lap, ms

	// Raw replies kept for after the measured phase (D0 only): decoding
	// them inline would spend client CPU the daemon is competing for.
	stash     []stashed
	stashData []byte

	epoch time.Time
	spans []span // nil unless tracing
	sink  any    // keeps a state evaluation's result alive at depths that have no use for it

	bytesIn, bytesOut int64 // request / response body bytes
	attempted, failed int
	err               error // first failure
}

type stashed struct {
	sess     int32
	kind     opKind
	from, to int
}

func (ln *lane) keep(sess int32, kind opKind, body []byte) {
	from := len(ln.stashData)
	ln.stashData = append(ln.stashData, body...)
	ln.stash = append(ln.stash, stashed{sess: sess, kind: kind, from: from, to: len(ln.stashData)})
}

// foldStash decodes the kept replies into the session digests.
func (ln *lane) foldStash() {
	for _, s := range ln.stash {
		body := ln.stashData[s.from:s.to]
		switch s.kind {
		case opAdvance:
			var rep advanceReply
			if err := json.Unmarshal(body, &rep); err != nil {
				ln.fail(fmt.Errorf("session %d: undecodable advance reply: %w", s.sess, err))
				continue
			}
			ln.dig[s.sess].addDecisions(rep.Decisions)
		case opState:
			ln.dig[s.sess].addState(body)
		}
	}
	ln.stash, ln.stashData = nil, nil
}

func (ln *lane) fail(err error) {
	ln.failed++
	if ln.err == nil {
		ln.err = err
	}
}

// maxFailures stops a lane whose run has clearly gone wrong (a missing
// session fails every later request against it) instead of grinding
// through the rest of the plan.
const maxFailures = 64

// run executes steps in order. timed=false is set-up and verification
// traffic: executed and checked, but not recorded as latency. Spans are
// recorded for timed steps once ln.spans is non-nil.
func (ln *lane) run(t target, steps []step, timed bool) {
	for i := range steps {
		if ln.failed >= maxFailures {
			return
		}
		st := &steps[i]
		ln.attempted++
		t0, t1, err := t.exec(ln, st)
		if err != nil {
			ln.fail(fmt.Errorf("%s %s session %d: %w", t.depth(), st.op.kind, st.sess, err))
			continue
		}
		if !timed {
			continue
		}
		ln.lat[st.op.kind] = append(ln.lat[st.op.kind], float64(t1.Sub(t0))/float64(time.Millisecond))
		if ln.spans != nil {
			ln.spans = append(ln.spans, span{
				Layer: t.depth(), Op: st.id, Kind: st.op.kind.String(), Sess: st.sess,
				Start: t0.Sub(ln.epoch).Nanoseconds(), End: t1.Sub(ln.epoch).Nanoseconds(),
			})
		}
	}
}

func newLanes(w *workload) []*lane {
	dig := newDigests(w.sessions)
	epoch := time.Now()
	out := make([]*lane, lanes)
	for i := range out {
		out[i] = &lane{idx: i, dig: dig, ckpt: map[int32][]byte{}, epoch: epoch}
	}
	return out
}

// resetLat empties the lanes' latency buckets.
func resetLat(ls []*lane) {
	for _, ln := range ls {
		for k := range ln.lat {
			ln.lat[k] = ln.lat[k][:0]
		}
	}
}

// gather merges the lanes' latency buckets of one kind.
func gather(ls []*lane, k opKind) []float64 {
	var out []float64
	for _, ln := range ls {
		out = append(out, ln.lat[k]...)
	}
	return out
}

// each runs fn once per lane, concurrently, and waits — the barrier
// that makes a lap one shared wall-clock window.
func each(ls []*lane, fn func(ln *lane)) {
	var wg sync.WaitGroup
	for _, ln := range ls {
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			fn(ln)
		}(ln)
	}
	wg.Wait()
}

// tally sums the lanes' operation counts.
func tally(ls []*lane) (attempted, failed int, first error) {
	for _, ln := range ls {
		attempted += ln.attempted
		failed += ln.failed
		if first == nil {
			first = ln.err
		}
	}
	return
}
