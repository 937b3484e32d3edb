package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/daemon"
)

// flushInterval is the -flush-interval of store-backed workloads.
const flushInterval = 50 * time.Millisecond

// setupRepeats: set-up is a second or less, so one sample is mostly
// noise. It is repeated on fresh children and the median reported.
const setupRepeats = 5

// bench carries what every mode shares.
type bench struct {
	root string // module root
	bin  string // built fairschedd
	out  io.Writer
}

func (b *bench) logf(format string, args ...any) { fmt.Fprintf(b.out, format, args...) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// server is one booted child with the lanes' connections to it, and
// the checkpoint directory it persists to (store-backed workloads).
type server struct {
	c       *child
	tgt     *httpTarget
	ckptDir string
}

// stop is the crash: connections dropped, process group killed. The
// checkpoint directory stays for the next boot to recover from.
func (s *server) stop() {
	s.tgt.close()
	s.c.kill()
}

// discard stops the server and removes what it persisted.
func (s *server) discard() {
	s.stop()
	if s.ckptDir != "" {
		removeDir(s.ckptDir)
	}
}

// bootFresh boots a child on a new, empty checkpoint directory.
func (b *bench) bootFresh(w *workload, seed int64) (*server, error) {
	ckptDir := ""
	if w.store {
		var err error
		if ckptDir, err = b.tempDir("ckpt-"); err != nil {
			return nil, err
		}
	}
	return b.boot(w, seed, ckptDir)
}

func (b *bench) boot(w *workload, seed int64, ckptDir string) (*server, error) {
	var args []string
	if w.pipeline > 0 {
		args = append(args, "-pipeline-workers", fmt.Sprint(w.pipeline))
	}
	if w.store {
		args = append(args, "-checkpoint-dir", ckptDir, "-flush-interval", flushInterval.String())
	}
	c, err := startChild(b.bin, args...)
	if err != nil {
		return nil, err
	}
	tgt, err := dialTarget(w, seed, c.addr)
	if err != nil {
		c.kill()
		return nil, err
	}
	return &server{c: c, tgt: tgt, ckptDir: ckptDir}, nil
}

// tempDir makes a tracked scratch directory under the build directory
// (inside the checkout; the contract forbids writing anywhere else).
func (b *bench) tempDir(prefix string) (string, error) {
	base := filepath.Join(b.root, buildDir)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, prefix)
	if err == nil {
		trackDir(dir)
	}
	return dir, err
}

// setUp is the timed set-up: child start → healthz OK → every session
// created, preloaded and warmed by two untimed rounds.
func (b *bench) setUp(p *plan) (*server, []*lane, float64, error) {
	t0 := time.Now()
	srv, err := b.bootFresh(p.w, p.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	ls := newLanes(p.w)
	each(ls, func(ln *lane) { ln.run(srv.tgt, p.setup[ln.idx], false) })
	return srv, ls, time.Since(t0).Seconds(), nil
}

// lapValues are one lap's worth of every per-lap metric.
type lapValues struct {
	reqPerS, advP50, advP95, subP50, readP50, cpuPerKreq float64
	requests, advances                                   int
}

// measure runs the laps against srv and returns one lapValues per lap.
func measure(srv *server, p *plan, ls []*lane) ([]lapValues, error) {
	var out []lapValues
	for _, lap := range p.laps {
		resetLat(ls)
		cpu0, err := srv.c.cpuSeconds()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		each(ls, func(ln *lane) { ln.run(srv.tgt, lap[ln.idx], true) })
		wall := time.Since(t0).Seconds()
		cpu1, err := srv.c.cpuSeconds()
		if err != nil {
			return nil, err
		}
		n := 0
		for k := opKind(0); k < numKinds; k++ {
			n += len(gather(ls, k))
		}
		if n == 0 {
			return nil, fmt.Errorf("bench: a lap completed no request")
		}
		adv := gather(ls, opAdvance)
		out = append(out, lapValues{
			reqPerS:    float64(n) / wall,
			advP50:     percentile(adv, 0.50),
			advP95:     percentile(adv, 0.95),
			subP50:     percentile(gather(ls, opSubmit), 0.50),
			readP50:    percentile(gather(ls, opState), 0.50),
			cpuPerKreq: (cpu1 - cpu0) / float64(n) * 1000,
			requests:   n,
			advances:   len(adv),
		})
	}
	return out, nil
}

// sessionSteps is one untimed step of kind k for each of lane l's
// sessions — the verification and recovery traffic.
func sessionSteps(w *workload, l int, kinds ...opKind) []step {
	var out []step
	for s := l * w.sessions / lanes; s < (l+1)*w.sessions/lanes; s++ {
		for _, k := range kinds {
			out = append(out, step{id: -1, sess: int32(s), op: op{kind: k}})
		}
	}
	return out
}

// waitFlushed blocks until the checkpoint directory holds one settled
// envelope per session: the flusher has caught up and nothing has
// changed for several flush intervals.
func waitFlushed(dir string, sessions int) error {
	listing := func() (string, int) {
		entries, _ := os.ReadDir(dir)
		var sb strings.Builder
		n := 0
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				continue
			}
			fmt.Fprintf(&sb, "%s %d %d\n", e.Name(), info.Size(), info.ModTime().UnixNano())
			if strings.HasSuffix(e.Name(), ".session.json") {
				n++
			}
		}
		return sb.String(), n
	}
	deadline := time.Now().Add(30 * time.Second)
	prev, same := "", 0
	for time.Now().Before(deadline) {
		time.Sleep(flushInterval)
		cur, n := listing()
		if cur == prev && n == sessions && !strings.Contains(cur, ".tmp-") {
			if same++; same >= 4 {
				return nil
			}
		} else {
			same = 0
		}
		prev = cur
	}
	return fmt.Errorf("bench: checkpoint directory %s did not settle on %d envelopes", dir, sessions)
}

// envelopeKB is the mean on-disk envelope size.
func envelopeKB(dir string) (float64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.session.json"))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("bench: no envelopes in %s (%v)", dir, err)
	}
	var total int64
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return float64(total) / float64(len(files)) / 1024, nil
}

// census makes sure everything a crash would have to recover from is
// in place — the envelopes settled on disk, or a checkpoint of every
// session in its client's hands — and returns its mean size in KB.
func census(srv *server, w *workload, ls []*lane) (float64, error) {
	if w.store {
		if err := waitFlushed(srv.ckptDir, w.sessions); err != nil {
			return 0, err
		}
		return envelopeKB(srv.ckptDir)
	}
	each(ls, func(ln *lane) { ln.run(srv.tgt, sessionSteps(w, ln.idx, opCheckpoint), false) })
	if _, failed, err := tally(ls); failed > 0 {
		return 0, fmt.Errorf("bench: checkpoint census: %w", err)
	}
	total := 0
	for _, ln := range ls {
		for _, data := range ln.ckpt {
			total += len(data)
		}
	}
	return float64(total) / float64(w.sessions) / 1024, nil
}

// recovered is what one crash recovery yields: how long it took and
// the state document every session answered with afterwards.
type recovered struct {
	seconds float64
	states  [][]byte
}

// recover is kill -9 → restart → healthz OK → every session's state
// fetched. A store-backed daemon reloads its own envelopes; a
// store-less one is handed back the checkpoints its clients hold
// (re-create + POST restore) — each workload recovers the way its
// deployment would have to.
func (b *bench) recover(srv *server, p *plan, ls []*lane) (*server, recovered, error) {
	srv.stop()
	t0 := time.Now()
	next, err := b.boot(p.w, p.seed, srv.ckptDir)
	if err != nil {
		return nil, recovered{}, err
	}
	rec := recovered{states: make([][]byte, p.w.sessions)}
	each(ls, func(ln *lane) {
		if !p.w.store {
			ln.run(next.tgt, sessionSteps(p.w, ln.idx, opCreate, opRestore), false)
		}
		ln.run(next.tgt, sessionSteps(p.w, ln.idx, opState), false)
	})
	rec.seconds = time.Since(t0).Seconds()
	for _, ln := range ls {
		for _, s := range ln.stash {
			rec.states[s.sess] = append([]byte(nil), ln.stashData[s.from:s.to]...)
		}
		ln.stash, ln.stashData = nil, nil
	}
	return next, rec, nil
}

// oracle replays the plan against in-process daemon.Sessions (depth 3)
// and returns the digests and final state documents the child's
// answers must equal.
func oracle(p *plan) ([]digest, [][]byte, error) {
	tgt := newSessionTarget(p.w, p.seed, false, daemon.NewManager())
	ls := newLanes(p.w)
	each(ls, func(ln *lane) {
		ln.run(tgt, p.setup[ln.idx], false)
		for _, lap := range p.laps {
			ln.run(tgt, lap[ln.idx], false)
		}
	})
	if _, failed, err := tally(ls); failed > 0 {
		return nil, nil, fmt.Errorf("bench: oracle replay failed: %w", err)
	}
	final := make([][]byte, p.w.sessions)
	for i, s := range tgt.sess {
		body, err := stateBody(s.State())
		if err != nil {
			return nil, nil, err
		}
		final[i] = body
	}
	return ls[0].dig, final, nil
}

// checker accumulates oracle verdicts as operations.
type checker struct {
	attempted, failed int
	first             error
}

func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if c.first == nil {
			c.first = fmt.Errorf(format, args...)
		}
	}
}

// compareStates holds the state documents sessions answered with
// after a crash to the replay's final ones: none missing, none changed.
func (c *checker) compareStates(what string, got, want [][]byte) {
	for s := range want {
		c.check(got[s] != nil && bytes.Equal(got[s], want[s]), "%s: session %d state differs from the replay's final state", what, s)
	}
}

// compareDigests holds got (one depth's digests) to want (another's).
func (c *checker) compareDigests(what string, got, want []digest, states bool) {
	for s := range want {
		c.check(got[s].dec == want[s].dec && got[s].decisions == want[s].decisions,
			"%s: session %d decision digest %016x over %d decisions, want %016x over %d",
			what, s, got[s].dec, got[s].decisions, want[s].dec, want[s].decisions)
		if states {
			c.check(got[s].state == want[s].state, "%s: session %d state digest %016x, want %016x", what, s, got[s].state, want[s].state)
		}
	}
}

// admissionTotals checks the conservation law on one state document
// and returns its counters.
func admissionTotals(body []byte) (released, admitted, defers int64, err error) {
	var st daemon.StateReply
	if err = json.Unmarshal(body, &st); err != nil {
		return
	}
	if st.Admission == nil || st.Admission.Stats == nil {
		err = fmt.Errorf("state carries no admission block")
		return
	}
	a := st.Admission.Stats
	for o := range a.Released {
		if a.Admitted[o]+a.Rejected[o]+a.Deferred[o] != a.Released[o] {
			err = fmt.Errorf("org %d: admitted %d + rejected %d + deferred %d != released %d",
				o, a.Admitted[o], a.Rejected[o], a.Deferred[o], a.Released[o])
			return
		}
		released += a.Released[o]
		admitted += a.Admitted[o]
		defers += a.Defers[o]
	}
	return
}

// runE2E is the untraced end-to-end run of one workload: the numbers a
// client of the daemon sees.
func (b *bench) runE2E(w *workload, seed int64, seconds float64) (*result, error) {
	p := newPlan(w, seed, w.measuredRounds(seconds))
	b.logf("workload %s: %d sessions, %d lanes (closed loop), %d measured rounds in %d laps, %d measured requests, seed %d\n",
		w.name, w.sessions, lanes, p.rounds, len(p.laps), p.ops, seed)
	load0, stolen0, began := loadavg(), stolenSeconds(), time.Now()

	// Set-up, repeated; the last child is the one measured.
	var (
		srv    *server
		ls     []*lane
		setups []float64
	)
	defer func() {
		if srv != nil {
			srv.discard()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.discard()
			srv = nil
		}
		var (
			secs float64
			err  error
		)
		if srv, ls, secs, err = b.setUp(p); err != nil {
			return nil, err
		}
		if _, failed, err := tally(ls); failed > 0 {
			return nil, fmt.Errorf("bench: set-up failed: %w", err)
		}
		setups = append(setups, secs)
	}

	laps, err := measure(srv, p, ls)
	if err != nil {
		return nil, err
	}
	rss, err := srv.c.rssPeakMB()
	if err != nil {
		return nil, err
	}
	each(ls, func(ln *lane) { ln.foldStash() })

	ckptKB, err := census(srv, w, ls)
	if err != nil {
		return nil, err
	}
	var rec recovered
	if srv, rec, err = b.recover(srv, p, ls); err != nil {
		return nil, err
	}
	srv.discard()
	srv = nil
	load1 := loadavg()
	stolen := (stolenSeconds() - stolen0) / (time.Since(began).Seconds() * float64(nproc()))

	// Verdict: every answer against the in-process replay.
	var chk checker
	want, final, err := oracle(p)
	if err != nil {
		return nil, err
	}
	chk.compareDigests("D0 vs oracle", ls[0].dig, want, true)
	var released, admitted, defers int64
	chk.compareStates("recovery", rec.states, final)
	if w.config(0, 0).Admission != nil {
		for s, body := range final {
			r, a, d, err := admissionTotals(body)
			chk.check(err == nil, "session %d: %v", s, err)
			released, admitted, defers = released+r, admitted+a, defers+d
		}
	}
	attempted, failed, first := tally(ls)
	attempted, failed = attempted+chk.attempted, failed+chk.failed
	if first == nil {
		first = chk.first
	}

	pick := func(f func(lapValues) float64) float64 {
		xs := make([]float64, len(laps))
		for i, l := range laps {
			xs[i] = f(l)
		}
		return median(xs)
	}
	res := &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":             {median(setups), "s"},
			"advance_p50_ms":      {pick(func(l lapValues) float64 { return l.advP50 }), "ms"},
			"submit_p50_ms":       {pick(func(l lapValues) float64 { return l.subP50 }), "ms"},
			"cpu_s_per_kreq":      {pick(func(l lapValues) float64 { return l.cpuPerKreq }), "s"},
			"rss_peak_mb":         {rss, "MB"},
			"ckpt_kb_per_session": {ckptKB, "KB"},
		},
	}
	// Measured on every run, but unbounded: on the reference box ten
	// runs of one commit spread more than the widest bound allowed on
	// these four, so they cannot gate. The traced run reports them as
	// client.* rows.
	b.logf("unbounded: req_per_s %.6g 1/s, advance_p95_ms %.6g ms, read_p50_ms %.6g ms, recover_s %.6g s\n",
		pick(func(l lapValues) float64 { return l.reqPerS }), pick(func(l lapValues) float64 { return l.advP95 }),
		pick(func(l lapValues) float64 { return l.readP50 }), rec.seconds)

	noisy := ""
	if load0 > float64(nproc()) {
		noisy += "  NOISY (load average above core count before the run)"
	}
	if stolen > 0.02 {
		noisy += "  NOISY (the hypervisor ran other guests on these cores)"
	}
	b.logf("loadavg1 before %.2f after %.2f, CPU stolen %.1f%%%s\n", load0, load1, 100*stolen, noisy)
	b.logf("laps: %d, per lap about %d requests / %d advances; set-ups %s s\n",
		len(laps), laps[0].requests, laps[0].advances, fmtFloats(setups))
	perLap := make([]string, len(laps))
	for i, l := range laps {
		perLap[i] = fmt.Sprintf("%.0f", l.reqPerS)
	}
	b.logf("req/s by lap: %s\n", strings.Join(perLap, " "))
	if released > 0 {
		b.logf("admission: %d released, %.1f%% admitted, %.1f defers per 1000 jobs\n",
			released, 100*float64(admitted)/float64(released), 1000*float64(defers)/float64(released))
	}
	b.logf("fail_ratio %d/%d = %g\n", failed, attempted, float64(failed)/float64(attempted))
	if first != nil {
		b.logf("first failure: %v\n", first)
	}
	return res, nil
}

// printMetrics lists every metric of a result by name with its unit.
func (b *bench) printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		b.logf("  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, "/")
}
