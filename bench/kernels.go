package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/bargain"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/daemon"
	"repro/internal/exp"
	"repro/internal/fed"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/shapley"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Kernels are timed by direct calls on mid-run state, built from the
// workloads' own shapes and the run's seed. They need no daemon, so
// every traced run reports all of them whatever its workload: a kernel
// row is a property of the code, not of the traffic.

// mallocs reads the process-wide allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// stepKernel drives one stepper through a workload-shaped job stream —
// warm rounds untimed, then timed rounds — and reports the mean cost of
// one StepNext event, its allocations, and the mean cost of injecting
// one job.
func stepKernel(alg core.StepperAlgorithm, shape *workload, cfg daemon.SessionConfig, seed int64, rounds int) (stepUs, allocsPerStep, injectUs float64, s core.Stepper, now model.Time, err error) {
	inst, err := singleInstance(cfg)
	if err != nil {
		return
	}
	const warm = 16
	inst.Jobs = make([]model.Job, 0, (warm+rounds+1)*shape.jobs+shape.preload)
	s = alg.NewStepper(inst, cfg.Seed)
	var (
		ids           []int
		steps, jobs   int
		stepNs, injNs time.Duration
		allocs        uint64
	)
	for r := -1; r < warm+rounds; r++ {
		var o op
		if r < 0 {
			o = shape.preloadOps(seed, 0)[0]
		} else {
			o = shape.roundOps(seed, 0, r)[0]
		}
		ids = ids[:0]
		for _, j := range o.jobs {
			id := len(inst.Jobs)
			ids = append(ids, id)
			inst.Jobs = append(inst.Jobs, model.Job{ID: id, Org: j.org, Size: j.size, Release: j.release})
		}
		timed := r >= warm
		t0 := time.Now()
		if err = s.Inject(ids); err != nil {
			return
		}
		if timed {
			injNs += time.Since(t0)
			jobs += len(ids)
		}
		if r < 0 {
			continue
		}
		now = model.Time(r+1) * shape.ticks
		n := 0
		var a0 uint64
		if timed {
			a0 = mallocs()
		}
		t0 = time.Now()
		for s.StepNext(now) {
			n++
		}
		dt := time.Since(t0)
		s.FinishAt(now)
		if timed {
			allocs += mallocs() - a0
			stepNs += dt
			steps += n
		}
	}
	if steps == 0 || jobs == 0 {
		err = fmt.Errorf("step kernel %s: no events", alg.Name())
		return
	}
	stepUs = float64(stepNs) / float64(steps) / 1e3
	allocsPerStep = float64(allocs) / float64(steps)
	injectUs = float64(injNs) / float64(jobs) / 1e3
	return
}

// memberShape is one fed-gated member seen as a single cluster: six
// organizations, the four machines of member 0, an eighth of a
// federation round's jobs.
func memberShape(fedw *workload) (*workload, daemon.SessionConfig) {
	shape := *fedw
	shape.clusters = 0
	shape.jobs = fedw.jobs / fedw.clusters
	shape.preload = fedw.preload / fedw.clusters
	return &shape, daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "nbs", Orgs: fedw.orgs, Machines: 4, Split: "uniform"}
}

// kernelRun is what every kernel needs: the run's seed, the workload
// shapes to build state from, and the smoke switch.
type kernelRun struct {
	seed   int64
	smoke  bool
	byName map[string]*workload
	m      map[string]float64
}

// scale picks an iteration count: full for a real run, small for smoke.
func (k *kernelRun) scale(full, small int) int {
	if k.smoke {
		return small
	}
	return full
}

func kernels(seed int64, smoke bool, m map[string]float64) error {
	k := &kernelRun{seed: seed, smoke: smoke, byName: map[string]*workload{}, m: m}
	for _, w := range workloads() {
		k.byName[w.name] = w
	}
	for _, run := range []func() error{k.core, k.shapley, k.bargain, k.sim, k.ingest, k.burst} {
		if err := run(); err != nil {
			return err
		}
	}
	return nil
}

// core: one StepNext event of each stepper family on its workload's
// shape.
func (k *kernelRun) core() error {
	nbsShape, nbsCfg := memberShape(k.byName["fed-gated"])
	for _, row := range []struct {
		name  string
		shape *workload
		cfg   daemon.SessionConfig
	}{
		{"core.ref", k.byName["shapley-k8"], k.byName["shapley-k8"].config(0, 1)},
		{"core.rand", k.byName["shapley-k8"], k.byName["shapley-k8"].config(1, 1)},
		{"core.nbs", nbsShape, nbsCfg},
		{"core.directcontr", k.byName["durable-churn"], k.byName["durable-churn"].config(0, 1)},
		{"core.policy", k.byName["thin-http"], k.byName["thin-http"].config(0, 1)},
	} {
		alg, err := buildAlg(row.cfg, row.cfg.Alg)
		if err != nil {
			return err
		}
		stepUs, allocs, injectUs, _, _, err := stepKernel(alg, row.shape, row.cfg, k.seed, k.scale(64, 4))
		if err != nil {
			return err
		}
		k.m[row.name+".step_us"] = stepUs
		k.m[row.name+".allocs_per_step"] = allocs
		if row.name == "core.ref" {
			k.m["core.ref.inject_us"] = injectUs
		}
	}
	return nil
}

// shapley: the exact refresh + φ pass and the sampled estimator, on the
// game of a mid-run k=8 REF.
func (k *kernelRun) shapley() error {
	w := k.byName["shapley-k8"]
	_, _, _, s, now, err := stepKernel(core.RefAlgorithm{Opts: core.RefOptions{Parallel: true}}, w, w.config(0, 1), k.seed, k.scale(8, 2))
	if err != nil {
		return err
	}
	ref, ok := s.(*core.Ref)
	if !ok {
		return fmt.Errorf("shapley kernel: REF stepper is %T, not *core.Ref", s)
	}
	ct, phi := shapley.NewContrib(w.orgs), make([]float64, w.orgs)
	n := k.scale(2000, 20)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		ct.Refresh(ref.Game(), now)
		ct.PhiInto(model.Grand(w.orgs), phi)
	}
	k.m["shapley.refresh_phi_us.k8"] = float64(time.Since(t0)) / float64(n) / 1e3
	rng := stats.NewRand(k.seed)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		sinkPhi = shapley.SampleAt(ref.Game(), now, 15, rng)
	}
	k.m["shapley.sample_us.k8.n15"] = float64(time.Since(t0)) / float64(n) / 1e3
	return nil
}

// bargain: the water-filling solve at the member shape (6
// organizations) and the federation shape (8 members).
func (k *kernelRun) bargain() error {
	var allocs uint64
	var solves int
	for _, players := range []int{6, 8} {
		r := &rng{s: uint64(k.seed) + uint64(players)}
		w, d, maxs, x := make([]float64, players), make([]float64, players), make([]float64, players), make([]float64, players)
		var capacity float64
		for i := 0; i < players; i++ {
			w[i] = float64(1 + r.intn(4))
			d[i] = float64(r.intn(200))
			maxs[i] = d[i] + float64(50+r.intn(400))
			capacity += d[i] + 120
		}
		var s bargain.Solver
		n := k.scale(200000, 200)
		a0 := mallocs()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := s.SolveInto(x, w, d, maxs, capacity); err != nil {
				return err
			}
		}
		k.m[fmt.Sprintf("bargain.solve_us.k%d", players)] = float64(time.Since(t0)) / float64(n) / 1e3
		allocs += mallocs() - a0
		solves += n
	}
	k.m["bargain.solve_allocs"] = float64(allocs) / float64(solves)
	return nil
}

// sim: one cluster event and one job injection, on the shape whose
// sessions each run hundreds of these clusters in lock-step.
func (k *kernelRun) sim() error {
	w := k.byName["shapley-k8"]
	inst, err := singleInstance(w.config(0, 1))
	if err != nil {
		return err
	}
	rounds := k.scale(2000, 20)
	inst.Jobs = make([]model.Job, 0, rounds*w.jobs)
	c := sim.New(inst, inst.Grand(), baseline.NewFCFS(), nil)
	var injNs, stepNs time.Duration
	var jobs, steps int
	for r := 0; r < rounds; r++ {
		from := len(inst.Jobs)
		for _, j := range w.roundOps(k.seed, 0, r)[0].jobs {
			inst.Jobs = append(inst.Jobs, model.Job{ID: len(inst.Jobs), Org: j.org, Size: j.size, Release: j.release})
		}
		t0 := time.Now()
		for id := from; id < len(inst.Jobs); id++ {
			if err := c.Inject(id); err != nil {
				return err
			}
		}
		injNs += time.Since(t0)
		jobs += len(inst.Jobs) - from
		until := model.Time(r+1) * w.ticks
		t0 = time.Now()
		for c.Step(until) {
			steps++
		}
		stepNs += time.Since(t0)
	}
	k.m["sim.cluster.step_ns"] = float64(stepNs) / float64(steps)
	k.m["sim.cluster.inject_ns"] = float64(injNs) / float64(jobs)
	return nil
}

// drain pulls a job source dry and returns the mean cost of one pull.
func drain(next func() (bool, error)) (float64, error) {
	pulled := 0
	t0 := time.Now()
	for {
		ok, err := next()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		pulled++
	}
	if pulled == 0 {
		return 0, fmt.Errorf("ingest kernel: the source yielded nothing")
	}
	return float64(time.Since(t0)) / float64(pulled), nil
}

// ingest: trace / gen / exp — no HTTP surface today, ledger only.
func (k *kernelRun) ingest() error {
	tr := gen.RICC().Scale(0.25).Generate(model.Time(k.scale(40000, 2000)), stats.NewRand(k.seed))
	// Generate emits user by user; an archive is in submit order.
	sort.SliceStable(tr.Jobs, func(a, b int) bool { return tr.Jobs[a].Submit < tr.Jobs[b].Submit })
	var swf bytes.Buffer
	if err := tr.WriteSWF(&swf); err != nil {
		return err
	}
	t0 := time.Now()
	parsed, _, err := trace.ParseSWF(bytes.NewReader(swf.Bytes()))
	if err != nil || len(parsed.Jobs) == 0 {
		return fmt.Errorf("swf kernel: %d jobs, %v", len(tr.Jobs), err)
	}
	k.m["trace.swf.parse_ns_per_job"] = float64(time.Since(t0)) / float64(len(parsed.Jobs))

	src, err := fed.NewSWFSource(bytes.NewReader(swf.Bytes()), 8, 6, k.seed)
	if err != nil {
		return err
	}
	if k.m["fed.swfsource.pull_ns_per_job"], err = drain(func() (bool, error) { _, ok, err := src.Next(); return ok, err }); err != nil {
		return err
	}
	gsrc, err := gen.DefaultFedScenario().Source(model.Time(k.scale(20000, 1000)), k.seed)
	if err != nil {
		return err
	}
	if k.m["gen.fedsource.next_ns_per_job"], err = drain(func() (bool, error) { _, ok, err := gsrc.Next(); return ok, err }); err != nil {
		return err
	}

	// The paper's batch path, kept on the record: one small, fixed
	// Table 1 cell block (one family, four organizations).
	cfg := exp.DefaultConfig(gen.LPCEGEE().Scale(0.5))
	cfg.Orgs, cfg.Horizon, cfg.Instances, cfg.Seed, cfg.Workers = 4, model.Time(k.scale(40000, 500)), 2, 1, 1
	t0 = time.Now()
	if _, err := exp.UnfairnessTable([]exp.Config{cfg}, exp.DefaultAlgorithms(15)); err != nil {
		return err
	}
	k.m["exp.table1_small_s"] = time.Since(t0).Seconds()
	return nil
}

// burst: the queueing case a two-client closed loop cannot build — the
// existing in-process load harness holding 10 000 sessions, whose
// enqueue-everything-then-collect rounds put thousands of advances in
// the pipeline at once.
func (k *kernelRun) burst() error {
	rep, err := daemon.RunLoad(daemon.LoadConfig{Sessions: k.scale(10000, 200), PipelineWorkers: 2})
	if err != nil {
		return err
	}
	k.m["daemon.pipeline.burst_p99_ms"] = rep.P99Ms
	return nil
}

// Sinks keep kernel results alive so the calls cannot be optimized away.
var (
	sinkPhi   []float64
	sinkRoute int
)

// fedrefKernel is the informational FedREF row: the exact-Shapley
// router on an exchange captured mid-run from the workload's own
// federation.
func fedrefKernel(p *timedPolicy, smoke bool) float64 {
	n := 2000
	if smoke {
		n = 5
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sinkRoute += fed.RefPolicy{}.RouteLedger(0, 0, p.sums, p.routed)
	}
	return float64(time.Since(t0)) / float64(n) / 1e3
}

// noopSink is a data plane that accepts everything and does nothing.
type noopSink struct{}

func (noopSink) Route(ctrl.Job, model.Time, ctrl.View) error { return nil }
func (noopSink) Refreshed(model.Time, ctrl.View) error       { return nil }

// ctrlProbe drives a bare ctrl.Plane — the workload's admission policy,
// a no-op sink — over every session's jobs, so the control plane's own
// cost is separated from the routing and feeding it triggers.
func ctrlProbe(p *plan, m map[string]float64) error {
	spec := p.w.config(0, 0).Admission
	if spec == nil {
		return nil
	}
	var arriveNs, advanceNs time.Duration
	var jobs int
	a0 := mallocs()
	for sess := 0; sess < p.w.sessions; sess++ {
		policy, err := spec.Build()
		if err != nil {
			return err
		}
		plane := ctrl.NewPlane(policy, ctrl.DirectProvider{Capture: func(model.Time) ctrl.View { return ctrl.View{} }}, p.w.orgs)
		for r := 0; r < warmRounds+p.rounds; r++ {
			ops := p.w.roundOps(p.seed, sess, r)
			t0 := time.Now()
			for _, j := range ops[0].jobs {
				plane.Arrive(ctrl.Job{Seq: -1, Org: j.org, Origin: j.cluster, Size: j.size, Release: j.release}, j.release)
			}
			t1 := time.Now()
			if err := plane.Advance(ops[1].until, noopSink{}); err != nil {
				return err
			}
			arriveNs += t1.Sub(t0)
			advanceNs += time.Since(t1)
			jobs += len(ops[0].jobs)
		}
	}
	m["ctrl.plane.allocs_per_job"] = float64(mallocs()-a0) / float64(jobs)
	m["ctrl.plane.arrive_us"] = float64(arriveNs) / float64(jobs) / 1e3
	m["ctrl.plane.advance_us_per_job"] = float64(advanceNs) / float64(jobs) / 1e3

	policy, err := spec.Build()
	if err != nil {
		return err
	}
	n := 200000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		policy.Decide(ctrl.Job{Org: i % p.w.orgs, Size: 10}, 0, model.Time(i/4), ctrl.View{})
	}
	m["ctrl.tokenbucket.decide_ns"] = float64(time.Since(t0)) / float64(n)
	return nil
}

// jsonKernels times the codec calls the handlers make, on the traced
// run's own documents: request bodies decoded into the handlers'
// request shapes, replies marshalled from the decoded reply values.
func jsonKernels(p *plan, replies [][]byte, m map[string]float64) {
	x := wire{p.w, p.seed}
	var bodies [][]byte
	var kinds []opKind
	var ids [][]int64
	for _, st := range p.laps[0][0] {
		if st.op.kind != opSubmit && st.op.kind != opAdvance {
			continue
		}
		st := st
		body, _ := x.body(nil, nil, &st)
		bodies, kinds = append(bodies, body), append(kinds, st.op.kind)
		if st.op.kind == opSubmit {
			row := make([]int64, len(st.op.jobs))
			for i := range row {
				row[i] = int64(len(ids)*len(row) + i)
			}
			ids = append(ids, row)
		}
	}
	if len(bodies) == 0 || len(replies) == 0 {
		return
	}
	t0 := time.Now()
	for i, body := range bodies {
		if kinds[i] == opSubmit {
			var req struct {
				Jobs []daemon.JobSubmission `json:"jobs"`
			}
			json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		} else {
			var req struct {
				Until *model.Time `json:"until"`
			}
			json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		}
	}
	m["daemon.json.decode_us"] = float64(time.Since(t0)) / float64(len(bodies)) / 1e3

	decoded := make([]advanceReply, len(replies))
	for i, body := range replies {
		json.Unmarshal(body, &decoded[i])
	}
	encodes := 0
	t0 = time.Now()
	for _, rep := range decoded {
		sinkJSON, _ = json.Marshal(map[string]any{"now": rep.Now, "decisions": rep.Decisions})
		encodes++
	}
	for i, row := range ids {
		if i >= len(decoded) {
			break
		}
		sinkJSON, _ = json.Marshal(map[string]any{"ids": row, "now": decoded[i].Now})
		encodes++
	}
	m["daemon.json.encode_us"] = float64(time.Since(t0)) / float64(encodes) / 1e3
}

var sinkJSON []byte
