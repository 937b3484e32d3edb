package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/model"
)

// traceFraction is the share of a workload's measured rounds the traced
// run replays: six depths plus the probes have to fit where the
// end-to-end run does one pass.
const traceFraction = 4

// depth is one entry point of the stack with a plan being replayed
// against it.
type depth struct {
	name    string
	t       target
	lanes   []*lane
	traced  bool      // record spans
	perOp   []float64 // one entry per lap: ns per typical operation (see lap)
	rate    []float64 // one entry per lap: operations completed per second
	mallocs float64   // runtime.MemStats.Mallocs over the laps (in-process depths)
	srv     *server   // depth 0 only
	close   func()
}

// open sets a depth up: every session created, preloaded and warmed.
// Set-up is timed (creation latency is a ledger row) but records no
// spans.
func (d *depth) open(p *plan) error {
	d.lanes = newLanes(p.w)
	each(d.lanes, func(ln *lane) { ln.run(d.t, p.setup[ln.idx], true) })
	if _, failed, err := tally(d.lanes); failed > 0 {
		return fmt.Errorf("%s set-up: %w", d.name, err)
	}
	return nil
}

// lap replays one lap at this depth and appends the cost of its
// typical operation.
func (d *depth) lap(p *plan, i int, inProcess bool) error {
	resetLat(d.lanes)
	var before uint64
	if inProcess {
		before = mallocs()
	}
	t0 := time.Now()
	each(d.lanes, func(ln *lane) { ln.run(d.t, p.laps[i][ln.idx], true) })
	wall := time.Since(t0).Seconds()
	if inProcess {
		d.mallocs += float64(mallocs() - before)
	}
	if _, failed, err := tally(d.lanes); failed > 0 {
		return fmt.Errorf("%s replay: %w", d.name, err)
	}
	// The typical request: each kind's median latency, weighted by the
	// lap's mix of kinds. A plain mean would hand a whole collection
	// pause or a preempted time slice to whichever depth it happened to
	// hit, and adjacent depths differ by less than one such event.
	var ms float64
	ops := 0
	for k := opKind(0); k < numKinds; k++ {
		xs := gather(d.lanes, k)
		ms += median(xs) * float64(len(xs))
		ops += len(xs)
	}
	d.perOp = append(d.perOp, ms*1e6/float64(ops))
	d.rate = append(d.rate, float64(ops)/wall)
	return nil
}

// selfTimes telescopes the costs of one operation at successive depths
// into per-layer self times: layer L's own time is what depth L spent
// beyond what depth L+1 spent on the same operations; the deepest depth
// keeps all of its time. The results sum to sums[0] by construction.
func selfTimes(sums []float64) []float64 {
	out := make([]float64, len(sums))
	for i := range sums {
		out[i] = sums[i]
		if i+1 < len(sums) {
			out[i] -= sums[i+1]
		}
	}
	return out
}

// writeSpans writes every traced depth's spans as JSON lines.
func writeSpans(path string, depths []*depth) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, d := range depths {
		for _, ln := range d.lanes {
			for i := range ln.spans {
				if err := enc.Encode(&ln.spans[i]); err != nil {
					f.Close()
					return err
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedStore is the store probe: a CheckpointStore decorator around
// DirStore that times every Save from outside the daemon package.
type timedStore struct {
	inner *daemon.DirStore
	ns    atomic.Int64
	saves atomic.Int64
	bytes atomic.Int64
}

func (s *timedStore) Save(env daemon.Envelope) error {
	t0 := time.Now()
	err := s.inner.Save(env)
	s.ns.Add(int64(time.Since(t0)))
	s.saves.Add(1)
	// DirStore's documented layout: one "<id>.session.json" per session.
	if info, serr := os.Stat(filepath.Join(s.inner.Dir(), env.ID+".session.json")); serr == nil {
		s.bytes.Add(info.Size())
	}
	return err
}

func (s *timedStore) Load() ([]daemon.Envelope, []daemon.Quarantined, error) { return s.inner.Load() }
func (s *timedStore) Delete(id string) error                                 { return s.inner.Delete(id) }
func (s *timedStore) Quarantine(id string) error                             { return s.inner.Quarantine(id) }

// storeProbe replays the plan on an in-process manager hosted the way
// fairschedd hosts one — timed store, background flusher — and reports
// what the checkpoint path cost.
func (b *bench) storeProbe(p *plan, m map[string]float64) error {
	dir, err := b.tempDir("probe-")
	if err != nil {
		return err
	}
	defer removeDir(dir)
	store := &timedStore{inner: daemon.NewDirStore(dir)}
	mgr := daemon.NewManager()
	mgr.SetStore(store)
	var flushErr atomic.Value
	fl := daemon.StartFlusher(mgr, store, flushInterval, func(format string, args ...any) {
		flushErr.Store(fmt.Errorf(format, args...))
	})
	tgt := newSessionTarget(p.w, p.seed, true, mgr)
	defer tgt.close()
	ls := newLanes(p.w)
	t0 := time.Now()
	each(ls, func(ln *lane) {
		ln.run(tgt, p.setup[ln.idx], false)
		for _, lap := range p.laps {
			ln.run(tgt, lap[ln.idx], false)
		}
	})
	// A replay shorter than the flush period (the smoke pass) would
	// otherwise end before the flusher's first tick.
	for time.Since(t0) < 2*flushInterval {
		time.Sleep(flushInterval / 5)
	}
	wall := time.Since(t0)
	fl.Stop()
	if _, failed, err := tally(ls); failed > 0 {
		return fmt.Errorf("store probe replay: %w", err)
	}
	if err, ok := flushErr.Load().(error); ok {
		return fmt.Errorf("store probe: %w", err)
	}
	saves := float64(store.saves.Load())
	if saves > 0 {
		m["daemon.store.save_us"] = float64(store.ns.Load()) / saves / 1e3
		m["daemon.store.save_bytes"] = float64(store.bytes.Load()) / saves
	}
	m["daemon.store.saves_per_s"] = saves / wall.Seconds()
	m["daemon.store.busy_ratio"] = float64(store.ns.Load()) / float64(wall)
	// Boot-time reload of everything the run left on disk.
	if _, err := mgr.FlushTo(store, false); err != nil {
		return err
	}
	fresh := daemon.NewManager()
	t0 = time.Now()
	ids, quarantined, err := fresh.LoadStore(store.inner)
	load := time.Since(t0)
	if err != nil || len(quarantined) > 0 || len(ids) == 0 {
		return fmt.Errorf("store probe reload: %d sessions, %d quarantined, %v", len(ids), len(quarantined), err)
	}
	m["daemon.store.load_us_per_session"] = float64(load) / float64(len(ids)) / 1e3
	return nil
}

// memberMirror re-runs, in stand-alone engines, exactly the jobs each
// member of each federation was fed at depth 4 (migration tombstones
// included), stepping to the same instants. What depth 4 cost beyond
// the mirror is the federation layer's own time: routing, migration,
// the control plane, bargaining. The mirror follows depth 4 lap by lap
// so the two are timed moments apart.
type memberMirror struct {
	t4   *engineTarget
	sess []mirrored
}

// mirrored is the mirror's position in one session's history.
type mirrored struct {
	retired int // incarnations of this session fully mirrored
	run     *run4
	engs    []*engine.Engine
	next    []int // per member: jobs of the instance already fed
	untils  int   // instants of run already stepped to
}

func newMemberMirror(t4 *engineTarget) *memberMirror {
	return &memberMirror{t4: t4, sess: make([]mirrored, len(t4.runs))}
}

// follow brings one incarnation's mirror up to where depth 4 left it.
func (ms *mirrored) follow(r *run4) error {
	if ms.run != r {
		*ms = mirrored{retired: ms.retired, run: r}
		for c, m := range r.fedn.Members() {
			src := m.Engine().Instance()
			inst, err := model.NewInstance(append([]model.Org(nil), src.Orgs...), nil)
			if err != nil {
				return err
			}
			ms.engs = append(ms.engs, engine.New(r.specs[c].Alg, inst, m.Engine().Seed()))
		}
		ms.next = make([]int, len(ms.engs))
	}
	members := r.fedn.Members()
	for ; ms.untils < len(r.untils); ms.untils++ {
		until := r.untils[ms.untils]
		for c, eng := range ms.engs {
			jobs := members[c].Engine().Instance().Jobs
			lo := ms.next[c]
			for ms.next[c] < len(jobs) && jobs[ms.next[c]].Release <= until {
				ms.next[c]++
			}
			batch := make([]model.Job, ms.next[c]-lo)
			for i, j := range jobs[lo:ms.next[c]] {
				batch[i] = model.Job{Org: j.Org, Size: j.Size, Release: j.Release}
			}
			if _, err := eng.Feed(batch); err != nil {
				return err
			}
			if _, err := eng.Step(until); err != nil {
				return err
			}
		}
	}
	return nil
}

// catchUp mirrors everything depth 4 did since the last call and
// returns how long the member engines took.
func (mm *memberMirror) catchUp() (time.Duration, error) {
	t0 := time.Now()
	for s := range mm.sess {
		ms := &mm.sess[s]
		for ; ms.retired < len(mm.t4.retired[s]); ms.retired++ {
			if err := ms.follow(mm.t4.retired[s][ms.retired]); err != nil {
				return 0, err
			}
		}
		if live := mm.t4.runs[s]; live != nil {
			if err := ms.follow(live); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(t0), nil
}

// tracedRun is the state of one traced run.
type tracedRun struct {
	b *bench
	p *plan
	m map[string]float64 // the ledger being filled

	// Depth 0 twice — spans on, spans off — and the in-process depths.
	d0, d0plain, d1, d2, d3, d4, d5 *depth
	order                           []*depth // replay order within a lap
	mirror                          *memberMirror
	mirrorPerOp                     []float64
	chk                             checker
}

// openChild boots a child for the plan and wraps it as a depth.
func (tr *tracedRun) openChild(traced bool) (*depth, error) {
	srv, err := tr.b.bootFresh(tr.p.w, tr.p.seed)
	if err != nil {
		return nil, err
	}
	d := &depth{name: "D0", t: srv.tgt, traced: traced, srv: srv}
	d.close = func() { d.srv.discard() }
	tr.order = append(tr.order, d)
	return d, d.open(tr.p)
}

func (tr *tracedRun) openLocal(t target, close func()) (*depth, error) {
	d := &depth{name: t.depth(), t: t, traced: true, close: close}
	tr.order = append(tr.order, d)
	return d, d.open(tr.p)
}

// openAll sets up every depth. The order is the replay order within a
// lap: the two children never run back to back, so one child's
// background flusher is not working off its lap while the other child
// is being timed.
func (tr *tracedRun) openAll() error {
	w, seed := tr.p.w, tr.p.seed
	var err error
	if tr.d0, err = tr.openChild(true); err != nil {
		return err
	}
	t1 := newHandlerTarget(w, seed)
	if tr.d1, err = tr.openLocal(t1, t1.close); err != nil {
		return err
	}
	// Depth 2 exists only where the daemon runs a pipeline; elsewhere
	// the handler calls Session.Advance itself and D2 is D3.
	if w.pipeline > 0 {
		t2 := newSessionTarget(w, seed, true, daemon.NewManager())
		if tr.d2, err = tr.openLocal(t2, t2.close); err != nil {
			return err
		}
	}
	if tr.d0plain, err = tr.openChild(false); err != nil {
		return err
	}
	if tr.d3, err = tr.openLocal(newSessionTarget(w, seed, false, daemon.NewManager()), nil); err != nil {
		return err
	}
	tr.m["daemon.create_us"] = mean(gather(tr.d3.lanes, opCreate)) * 1e3
	if tr.d2 == nil {
		tr.d2 = tr.d3
	}
	t4 := newEngineTarget(w, seed)
	if tr.d4, err = tr.openLocal(t4, nil); err != nil {
		return err
	}
	if w.clusters == 0 {
		tr.d5, err = tr.openLocal(newStepperTarget(w, seed), nil)
		return err
	}
	tr.mirror = newMemberMirror(t4)
	_, err = tr.mirror.catchUp() // the set-up rounds, untimed
	return err
}

func (tr *tracedRun) closeAll() {
	for _, d := range tr.order {
		if d.close != nil {
			d.close()
		}
	}
}

// replayLaps runs the measured laps: within each lap every depth in
// turn, so that adjacent depths are timed seconds apart and the drift
// of the machine's speed cancels in their differences.
//
// This process's collector is paused while depths are timed and forced
// once per lap instead: with every depth's sessions live in one heap, a
// collection is long, and the cyclic replay would otherwise keep
// handing it to the same depth. The child's collector runs as always,
// so the daemon's own collection time is part of depth 0 and lands in
// net.self_us.
func (tr *tracedRun) replayLaps() error {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, d := range tr.order {
		if d.traced {
			for _, ln := range d.lanes {
				ln.spans = make([]span, 0, tr.p.ops/lanes+16)
			}
		}
	}
	for i := range tr.p.laps {
		runtime.GC()
		for _, d := range tr.order {
			if err := d.lap(tr.p, i, d.name != "D0"); err != nil {
				return err
			}
			if d == tr.d4 && tr.mirror != nil {
				took, err := tr.mirror.catchUp()
				if err != nil {
					return err
				}
				ops := 0
				for _, steps := range tr.p.laps[i] {
					ops += len(steps)
				}
				tr.mirrorPerOp = append(tr.mirrorPerOp, float64(took)/float64(ops))
			}
		}
	}
	return nil
}

// ledger turns the per-lap depth costs into the per-layer rows: each
// lap's costs are telescoped into self times and each row is the
// median of its laps. The base, client.request_us, is the rows' sum.
func (tr *tracedRun) ledger() (rows []float64) {
	deepest := tr.mirrorPerOp
	if tr.d5 != nil {
		deepest = tr.d5.perOp
	}
	byRow := make([][]float64, 6)
	for i := range tr.d0.perOp {
		self := selfTimes([]float64{tr.d0.perOp[i], tr.d1.perOp[i], tr.d2.perOp[i], tr.d3.perOp[i], tr.d4.perOp[i], deepest[i]})
		for r := range self {
			byRow[r] = append(byRow[r], self[r])
		}
	}
	rows = make([]float64, len(byRow))
	var total float64
	for r := range byRow {
		rows[r] = median(byRow[r]) / 1e3 // µs
		total += rows[r]
	}
	m := tr.m
	m["client.request_us"] = total
	m["net.self_us"] = rows[0]
	m["daemon.http.self_us"] = rows[1]
	m["daemon.pipeline.self_us"] = rows[2]
	m["daemon.session.self_us"] = rows[3]
	if tr.d5 != nil {
		m["engine.self_us"] = rows[4]
	} else {
		m["fed.self_us"] = rows[4]
	}
	m["core.self_us"] = rows[5]

	ratios := make([]float64, len(tr.d0.perOp))
	for i := range ratios {
		ratios[i] = tr.d0.perOp[i] / tr.d0plain.perOp[i]
	}
	m["trace.overhead_ratio"] = median(ratios)
	return rows
}

// clientRows are the ledger rows read off depth 0's own traffic: the
// end-to-end figures too unsteady on the reference box to carry a
// bound (throughput, the latency tail, read latency), the
// per-algorithm split, and the wire sizes.
func (tr *tracedRun) clientRows() {
	m, d0 := tr.m, tr.d0
	// The per-algorithm split of a workload that mixes REF and RAND.
	algs := make([]string, tr.p.w.sessions)
	for i := range algs {
		algs[i] = tr.p.w.sessionConfig(tr.p.seed, i).Alg
	}
	var adv, ref, rnd, reads []float64
	for _, ln := range d0.lanes {
		for _, sp := range ln.spans {
			ms := float64(sp.End-sp.Start) / 1e6
			if sp.Kind == opState.String() {
				reads = append(reads, ms)
			}
			if sp.Kind != opAdvance.String() {
				continue
			}
			adv = append(adv, ms)
			switch algs[sp.Sess] {
			case "ref":
				ref = append(ref, ms)
			case "rand":
				rnd = append(rnd, ms)
			}
		}
	}
	m["client.req_per_s"] = median(tr.d0plain.rate)
	m["client.advance_p95_ms"] = percentile(adv, 0.95)
	m["client.advance_p99_ms"] = percentile(adv, 0.99)
	m["client.read_p50_ms"] = percentile(reads, 0.5)
	m["client.ref.advance_p50_ms"] = percentile(ref, 0.5)
	m["client.rand.advance_p50_ms"] = percentile(rnd, 0.5)
	// Body bytes per request, set-up traffic included.
	var in, out int64
	reqs := 0
	for _, ln := range d0.lanes {
		in, out, reqs = in+ln.bytesIn, out+ln.bytesOut, reqs+ln.attempted
	}
	m["daemon.json.bytes_in"] = float64(in) / float64(reqs)
	m["daemon.json.bytes_out"] = float64(out) / float64(reqs)
}

// recoveryRow crashes the untraced child and times its recovery: kill
// -9 → restart → healthz OK → every session's state fetched, each held
// to depth 3's final state document.
func (tr *tracedRun) recoveryRow() error {
	d, w := tr.d0plain, tr.p.w
	if _, err := census(d.srv, w, d.lanes); err != nil {
		return err
	}
	each(d.lanes, func(ln *lane) { ln.stash, ln.stashData = nil, nil })
	next, rec, err := tr.b.recover(d.srv, tr.p, d.lanes)
	if err != nil {
		return err
	}
	d.srv = next
	final := make([][]byte, w.sessions)
	for i, sess := range tr.d3.t.(*sessionTarget).sess {
		if final[i], err = stateBody(sess.State()); err != nil {
			return err
		}
	}
	tr.chk.compareStates("recovery", rec.states, final)
	tr.m["client.recover_s"] = rec.seconds
	return nil
}

// snapshotProbe checkpoints and restores every session once at depth d
// and returns the mean cost of each in µs and the mean snapshot size.
// It runs after the span file is written, so its traffic is not in it.
func (tr *tracedRun) snapshotProbe(d *depth) (snapUs, restoreUs, bytes float64, err error) {
	w := tr.p.w
	resetLat(d.lanes)
	each(d.lanes, func(ln *lane) { ln.run(d.t, sessionSteps(w, ln.idx, opCheckpoint, opRestore), true) })
	if _, failed, ferr := tally(d.lanes); failed > 0 {
		return 0, 0, 0, fmt.Errorf("%s snapshot probe: %w", d.name, ferr)
	}
	total := 0
	for _, ln := range d.lanes {
		for _, data := range ln.ckpt {
			total += len(data)
		}
	}
	return mean(gather(d.lanes, opCheckpoint)) * 1e3, mean(gather(d.lanes, opRestore)) * 1e3, float64(total) / float64(w.sessions), nil
}

// sessionRows are the rows probed at depth 3: State during the laps,
// Checkpoint and Restore of every session afterwards, and the
// admission counters of gated sessions.
func (tr *tracedRun) sessionRows() error {
	m := tr.m
	var states []float64
	for _, ln := range tr.d3.lanes {
		for _, sp := range ln.spans {
			if sp.Kind == opState.String() {
				states = append(states, float64(sp.End-sp.Start)/1e3)
			}
		}
	}
	m["daemon.state_us"] = mean(states)
	var err error
	if m["daemon.checkpoint.encode_us"], m["daemon.session.restore_us"], _, err = tr.snapshotProbe(tr.d3); err != nil {
		return err
	}
	if tr.p.w.config(0, 0).Admission == nil {
		return nil
	}
	var released, admitted, defers int64
	for s, sess := range tr.d3.t.(*sessionTarget).sess {
		body, err := stateBody(sess.State())
		if err != nil {
			return err
		}
		r, a, d, err := admissionTotals(body)
		tr.chk.check(err == nil, "session %d: %v", s, err)
		released, admitted, defers = released+r, admitted+a, defers+d
	}
	if released > 0 {
		m["ctrl.admitted_ratio"] = float64(admitted) / float64(released)
		m["ctrl.deferred_per_kjob"] = 1000 * float64(defers) / float64(released)
	}
	return nil
}

// engineRows are the rows probed at depth 4: snapshots, and for
// federations the routing probe and the ledger's counters.
func (tr *tracedRun) engineRows(smoke bool) error {
	m, w := tr.m, tr.p.w
	snapUs, restoreUs, bytes, err := tr.snapshotProbe(tr.d4)
	if err != nil {
		return err
	}
	if w.clusters == 0 {
		m["engine.snapshot_us"], m["engine.restore_us"], m["engine.snapshot_bytes"] = snapUs, restoreUs, bytes
		return nil
	}
	m["fed.snapshot_us"], m["fed.snapshot_bytes"] = snapUs, bytes
	m["fed.allocs_per_step"] = tr.d4.mallocs / float64(tr.p.count(opAdvance))
	// The probes sum over each session's current incarnation — the same
	// jobs Submitted counts.
	var routeNs, calls, jobs, migrations int64
	var offload float64
	var exchange *timedPolicy
	for _, r := range tr.d4.t.(*engineTarget).runs {
		routeNs += r.probe.ns.Load()
		calls += r.probe.calls.Load()
		jobs += r.fedn.Submitted()
		l := r.fedn.Ledger()
		migrations += l.Migrations
		offload += l.OffloadedFraction()
		if exchange == nil && r.probe.sums != nil {
			exchange = r.probe
		}
	}
	if jobs > 0 {
		m["fed.route_us_per_job"] = float64(routeNs) / float64(jobs) / 1e3
		m["fed.route_calls_per_job"] = float64(calls) / float64(jobs)
		m["fed.migrations_per_kjob"] = 1000 * float64(migrations) / float64(jobs)
	}
	m["fed.offload_ratio"] = offload / float64(w.sessions)
	if exchange != nil {
		m["fed.route.fedref_us"] = fedrefKernel(exchange, smoke)
	}
	return ctrlProbe(tr.p, m)
}

// replayed is what the depth replays hand back to runTrace.
type replayed struct {
	rows              []float64 // the six ledger rows, µs
	replies           [][]byte  // a sample of depth 0's raw advance replies
	attempted, failed int
	checks            int
	first             error
}

// replayDepths opens every depth, replays the laps, fills the ledger
// rows that come from the replays and writes the span file. Everything
// it built — two children, five copies of every session — is released
// when it returns, so the kernels that follow are not taxed by the
// collector for it.
func (b *bench) replayDepths(p *plan, m map[string]float64, smoke bool, tracePath string) (*replayed, error) {
	tr := &tracedRun{b: b, p: p, m: m}
	defer tr.closeAll()
	if err := tr.openAll(); err != nil {
		return nil, err
	}
	if err := tr.replayLaps(); err != nil {
		return nil, err
	}
	out := &replayed{}

	// Every depth must have made depth 0's decisions.
	for _, ln := range tr.d0.lanes {
		for _, s := range ln.stash {
			if s.kind == opAdvance && len(out.replies) < 2048 {
				out.replies = append(out.replies, append([]byte(nil), ln.stashData[s.from:s.to]...))
			}
		}
	}
	each(tr.d0.lanes, func(ln *lane) { ln.foldStash() })
	want := tr.d0.lanes[0].dig
	traced := []*depth{tr.d0}
	for _, d := range []*depth{tr.d1, tr.d2, tr.d3, tr.d4, tr.d5} {
		if d == nil || d == traced[len(traced)-1] {
			continue
		}
		// Depths 4 and 5 sit below the state document.
		tr.chk.compareDigests(d.name+" vs D0", d.lanes[0].dig, want, d != tr.d4 && d != tr.d5)
		traced = append(traced, d)
	}
	if err := writeSpans(tracePath, traced); err != nil {
		return nil, err
	}

	out.rows = tr.ledger()
	tr.clientRows()
	n := float64(p.ops)
	if tr.d2 != tr.d3 {
		if st := tr.d2.t.(*sessionTarget).pipe.Stats(); st.Advances > 0 {
			m["daemon.pipeline.coalesced_ratio"] = float64(st.Coalesced) / float64(st.Advances)
			m["daemon.pipeline.wakeups_per_adv"] = float64(st.Wakeups) / float64(st.Advances)
		}
	}
	m["daemon.http.allocs_per_req"] = (tr.d1.mallocs - tr.d2.mallocs) / n
	m["daemon.session.allocs_per_op"] = (tr.d3.mallocs - tr.d4.mallocs) / n
	if tr.d5 != nil {
		m["engine.allocs_per_op"] = (tr.d4.mallocs - tr.d5.mallocs) / n
	}
	if err := tr.recoveryRow(); err != nil {
		return nil, err
	}
	if err := tr.sessionRows(); err != nil {
		return nil, err
	}
	if err := tr.engineRows(smoke); err != nil {
		return nil, err
	}
	out.attempted, out.failed, out.first, out.checks = tr.chk.attempted, tr.chk.failed, tr.chk.first, tr.chk.attempted
	for _, d := range tr.order {
		a, f, e := tally(d.lanes)
		out.attempted, out.failed = out.attempted+a, out.failed+f
		if out.first == nil {
			out.first = e
		}
	}
	return out, nil
}

// runTrace is the traced run of one workload: the per-layer ledger.
func (b *bench) runTrace(w *workload, o options, outDir string) (*result, error) {
	full := w.measuredRounds(o.seconds)
	rounds := (full + traceFraction - 1) / traceFraction
	p := newPlan(w, o.seed, rounds)
	b.logf("workload %s (traced): %d of %d measured rounds (%.0f%%), %d replayed requests per depth, seed %d\n",
		w.name, rounds, full, 100*float64(rounds)/float64(full), p.ops, o.seed)
	m := map[string]float64{}
	tracePath := filepath.Join(outDir, "trace-"+w.name+".jsonl")
	rep, err := b.replayDepths(p, m, o.smoke, tracePath)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	if w.store {
		if err := b.storeProbe(p, m); err != nil {
			return nil, err
		}
	}
	jsonKernels(p, rep.replies, m)
	if err := kernels(o.seed, o.smoke, m); err != nil {
		return nil, err
	}

	res := &result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, lm := range layerMetrics {
		v := m[lm.name] // 0 for a layer off this workload's path
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[lm.name] = metric{v, lm.unit}
	}

	b.logf("ledger (µs per typical request, median over %d laps; share of the rows' sum):\n", len(p.laps))
	names := []string{"net", "daemon.http", "daemon.pipeline", "daemon.session", "engine", "core+shapley+sim"}
	if w.clusters > 0 {
		names[4], names[5] = "fed+ctrl+bargain", "member engines (core.nbs+sim)"
	}
	total := m["client.request_us"]
	for i, name := range names {
		b.logf("  %-32s %10.2f  %5.1f%%\n", name, rep.rows[i], 100*rep.rows[i]/total)
	}
	b.logf("  %-32s %10.2f  100.0%%   (%d spans per depth in %s)\n", "depth 0", total, p.ops, tracePath)
	b.logf("decision digests equal at every depth: %v (%d checks)\n", rep.failed == 0, rep.checks)
	if rep.first != nil {
		b.logf("first failure: %v\n", rep.first)
	}
	return res, nil
}
