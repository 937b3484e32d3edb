package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/fed"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Depth-peeling replay. The repo's determinism guarantee — a run is a
// pure function of its configuration and call sequence — lets the same
// plan be executed at successively deeper public entry points, from
// the bench's own files, with no hook inside the program:
//
//	D0  HTTP to the child                      (httpTarget)
//	D1  Server.Handler().ServeHTTP             (handlerTarget)
//	D2  Pipeline.Advance / Session.Submit      (sessionTarget with a pipeline)
//	D3  Session.Advance                        (sessionTarget without)
//	D4  engine.Engine / fed.Federation         (engineTarget)
//	D5  core.Stepper Inject/StepNext/FinishAt  (stepperTarget)
//
// Every depth must reproduce depth 0's per-session decision digest, and
// the time a layer spends in its own code is the difference between
// the summed spans of adjacent depths.

// handlerTarget is depth 1: the daemon's handler driven in-process.
type handlerTarget struct {
	wire
	h    http.Handler
	pipe *daemon.Pipeline
}

func newHandlerTarget(w *workload, seed int64) *handlerTarget {
	srv := daemon.NewServer(daemon.NewManager())
	t := &handlerTarget{wire: wire{w, seed}}
	if w.pipeline > 0 {
		t.pipe = daemon.NewPipeline(daemon.PipelineOptions{Workers: w.pipeline})
		srv.UsePipeline(t.pipe)
	}
	t.h = srv.Handler()
	return t
}

func (t *handlerTarget) close() {
	if t.pipe != nil {
		t.pipe.Close()
	}
}

func (t *handlerTarget) depth() string { return "D1" }

func (t *handlerTarget) exec(ln *lane, st *step) (t0, t1 time.Time, err error) {
	k := st.op.kind
	body, err := t.body(nil, ln, st)
	if err != nil {
		return
	}
	req, err := http.NewRequest(t.method(k), string(t.path(nil, st.sess, k)), bytes.NewReader(body))
	if err != nil {
		return
	}
	rec := httptest.NewRecorder()
	t0 = time.Now()
	t.h.ServeHTTP(rec, req)
	t1 = time.Now()
	out := rec.Body.Bytes()
	if rec.Code != wantStatus(k) {
		err = fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(out))
		return
	}
	switch k {
	case opAdvance:
		var rep advanceReply
		if err = json.Unmarshal(out, &rep); err == nil {
			ln.dig[st.sess].addDecisions(rep.Decisions)
		}
	case opState:
		ln.dig[st.sess].addState(out)
	case opCheckpoint:
		ln.ckpt[st.sess] = append([]byte(nil), out...)
	}
	return
}

// sessionTarget is depths 2 and 3: the daemon's Manager and Sessions
// called directly, with advances through a Pipeline (D2) or straight
// into Session.Advance (D3). D3 is also the correctness oracle of the
// untraced run.
type sessionTarget struct {
	w    *workload
	seed int64
	name string
	mgr  *daemon.Manager
	pipe *daemon.Pipeline
	sess []*daemon.Session
}

func newSessionTarget(w *workload, seed int64, pipelined bool, mgr *daemon.Manager) *sessionTarget {
	t := &sessionTarget{w: w, seed: seed, name: "D3", mgr: mgr, sess: make([]*daemon.Session, w.sessions)}
	if pipelined {
		t.name = "D2"
		t.pipe = daemon.NewPipeline(daemon.PipelineOptions{Workers: w.pipeline})
	}
	return t
}

func (t *sessionTarget) close() {
	if t.pipe != nil {
		t.pipe.Close()
	}
}

func (t *sessionTarget) depth() string { return t.name }

// stateBody is the state document exactly as the handler writes it.
func stateBody(st daemon.StateReply) ([]byte, error) {
	data, err := json.Marshal(st)
	return append(data, '\n'), err
}

func (t *sessionTarget) exec(ln *lane, st *step) (t0, t1 time.Time, err error) {
	s := t.sess[st.sess]
	if s == nil && st.op.kind != opCreate {
		err = fmt.Errorf("no such session")
		return
	}
	switch st.op.kind {
	case opCreate:
		id, cfg := sessionID(int(st.sess)), t.w.sessionConfig(t.seed, int(st.sess))
		t0 = time.Now()
		s, err = t.mgr.Create(id, cfg)
		t1 = time.Now()
		t.sess[st.sess] = s
	case opSubmit:
		jobs := make([]daemon.JobSubmission, len(st.op.jobs))
		for i := range st.op.jobs {
			j := &st.op.jobs[i]
			jobs[i] = daemon.JobSubmission{Cluster: j.cluster, Org: j.org, Size: j.size, Release: &j.release}
		}
		t0 = time.Now()
		_, err = s.Submit(jobs)
		t1 = time.Now()
	case opAdvance:
		until := st.op.until
		var decs []daemon.Decision
		t0 = time.Now()
		if t.pipe != nil {
			_, decs, err = t.pipe.Advance(s, &until)
		} else {
			_, decs, err = s.Advance(&until)
		}
		t1 = time.Now()
		ln.dig[st.sess].addDecisions(decs)
	case opState:
		t0 = time.Now()
		reply := s.State()
		t1 = time.Now()
		var body []byte
		if body, err = stateBody(reply); err == nil {
			ln.dig[st.sess].addState(body)
		}
	case opCheckpoint:
		var data []byte
		t0 = time.Now()
		data, err = s.Checkpoint()
		t1 = time.Now()
		ln.ckpt[st.sess] = data
	case opRestore:
		data := ln.ckpt[st.sess]
		t0 = time.Now()
		err = s.Restore(data)
		t1 = time.Now()
	case opDelete:
		t0 = time.Now()
		ok := t.mgr.Delete(sessionID(int(st.sess)))
		t1 = time.Now()
		t.sess[st.sess] = nil
		if !ok {
			err = fmt.Errorf("delete of a missing session")
		}
	}
	return
}

// buildAlg and singleInstance mirror the daemon's unexported
// SessionConfig resolution. Any drift between the two shows up at once
// as a decision-digest mismatch between depths 3 and 4.
func buildAlg(cfg daemon.SessionConfig, name string) (core.StepperAlgorithm, error) {
	samples := cfg.RandSamples
	if samples <= 0 {
		samples = 15
	}
	driverName := cfg.RefDriver
	if driverName == "" {
		driverName = "heap"
	}
	driver, err := core.ParseRefDriver(driverName)
	if err != nil {
		return nil, err
	}
	alg, err := exp.AlgorithmByName(name, samples,
		core.RefOptions{Parallel: true, Workers: cfg.Workers, Driver: driver},
		core.RandOptions{Workers: cfg.Workers, Stratified: cfg.Stratified})
	if err != nil {
		return nil, err
	}
	stepper, ok := alg.(core.StepperAlgorithm)
	if !ok {
		return nil, fmt.Errorf("algorithm %q cannot run incrementally", name)
	}
	return stepper, nil
}

func singleInstance(cfg daemon.SessionConfig) (*model.Instance, error) {
	var split []int
	if cfg.Split == "uniform" {
		split = stats.UniformSplit(cfg.Machines, cfg.Orgs)
	} else {
		split = stats.ZipfSplit(cfg.Machines, cfg.Orgs, 1)
	}
	orgs := make([]model.Org, cfg.Orgs)
	for i := range orgs {
		orgs[i] = model.Org{Name: fmt.Sprintf("org%d", i), Machines: split[i]}
	}
	return model.NewInstance(orgs, nil)
}

// timedPolicy is the routing probe: a fed.LedgerPolicy decorator placed
// as fed.Migrating.Inner that times every route call from outside the
// fed package. It forwards name and verdicts untouched, so the
// federation it sits in stays byte-identical to the daemon's. One
// instance per session — a session is single-goroutine — so the
// counters need no lock; atomics only make the final read race-free.
type timedPolicy struct {
	inner fed.Policy
	ns    atomic.Int64
	calls atomic.Int64

	// One mid-run exchange kept for the informational FedREF row.
	sums   []fed.Summary
	routed [][]int64
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Route(org, origin int, sums []fed.Summary) int {
	t0 := time.Now()
	c := p.inner.Route(org, origin, sums)
	p.ns.Add(int64(time.Since(t0)))
	p.calls.Add(1)
	return c
}

func (p *timedPolicy) RouteLedger(org, origin int, sums []fed.Summary, routed [][]int64) int {
	lp, ok := p.inner.(fed.LedgerPolicy)
	if !ok {
		return p.Route(org, origin, sums)
	}
	t0 := time.Now()
	c := lp.RouteLedger(org, origin, sums, routed)
	p.ns.Add(int64(time.Since(t0)))
	if p.calls.Add(1) == 256 {
		p.sums = append([]fed.Summary(nil), sums...)
		p.routed = make([][]int64, len(routed))
		for i := range routed {
			p.routed[i] = append([]int64(nil), routed[i]...)
		}
	}
	return c
}

// fedParts resolves a federation config the way the daemon does, with
// the routing probe slipped under the migration wrapper.
func fedParts(cfg daemon.SessionConfig) ([]fed.ClusterSpec, fed.Policy, *timedPolicy, error) {
	specs := make([]fed.ClusterSpec, len(cfg.Clusters))
	for i, cl := range cfg.Clusters {
		alg, err := buildAlg(cfg, cl.Alg)
		if err != nil {
			return nil, nil, nil, err
		}
		specs[i] = fed.ClusterSpec{Name: cl.Name, Alg: alg, Machines: cl.Machines}
	}
	policy, err := fed.PolicyByName(cfg.Policy)
	if err != nil {
		return nil, nil, nil, err
	}
	policy = fed.WithMigrationBudget(policy, cfg.MigrationBudget)
	var probe *timedPolicy
	if m, ok := policy.(fed.Migrating); ok {
		probe = &timedPolicy{inner: m.Inner}
		m.Inner = probe
		policy = m
	} else {
		probe = &timedPolicy{inner: policy}
		policy = probe
	}
	return specs, policy, probe, nil
}

// run4 is one session at depth 4.
type run4 struct {
	cfg    daemon.SessionConfig
	alg    core.StepperAlgorithm
	eng    *engine.Engine
	specs  []fed.ClusterSpec
	policy fed.Policy
	probe  *timedPolicy
	fedn   *fed.Federation
	untils []model.Time // every instant this federation was stepped to
}

// engineTarget is depth 4: engine.Engine.Feed/Step for single-cluster
// sessions, fed.Federation.Submit/Step for federations, built from the
// same configuration the daemon would resolve.
type engineTarget struct {
	w    *workload
	seed int64
	runs []*run4
	// retired keeps deleted federations per session, so the member
	// replay can account for every incarnation the laps touched.
	retired [][]*run4
}

func newEngineTarget(w *workload, seed int64) *engineTarget {
	return &engineTarget{w: w, seed: seed, runs: make([]*run4, w.sessions), retired: make([][]*run4, w.sessions)}
}

func (t *engineTarget) depth() string { return "D4" }

func (t *engineTarget) create(sess int) (*run4, time.Time, time.Time, error) {
	cfg := t.w.sessionConfig(t.seed, sess)
	r := &run4{cfg: cfg}
	var t0, t1 time.Time
	if cfg.Kind == daemon.KindSingle {
		alg, err := buildAlg(cfg, cfg.Alg)
		if err != nil {
			return nil, t0, t1, err
		}
		r.alg = alg
		t0 = time.Now()
		inst, err := singleInstance(cfg)
		if err != nil {
			return nil, t0, t1, err
		}
		r.eng = engine.New(alg, inst, cfg.Seed)
		err = r.eng.SetAdmission(cfg.Admission)
		t1 = time.Now()
		return r, t0, t1, err
	}
	var err error
	if r.specs, r.policy, r.probe, err = fedParts(cfg); err != nil {
		return nil, t0, t1, err
	}
	t0 = time.Now()
	r.fedn, err = fed.New(cfg.OrgNames, r.specs, r.policy, cfg.Seed)
	if err == nil {
		r.fedn.SetStaleness(cfg.Staleness)
		err = r.fedn.SetAdmission(cfg.Admission)
	}
	t1 = time.Now()
	return r, t0, t1, err
}

func (t *engineTarget) exec(ln *lane, st *step) (t0, t1 time.Time, err error) {
	r := t.runs[st.sess]
	if r == nil && st.op.kind != opCreate {
		err = fmt.Errorf("no such session")
		return
	}
	d := &ln.dig[st.sess]
	switch st.op.kind {
	case opCreate:
		r, t0, t1, err = t.create(int(st.sess))
		t.runs[st.sess] = r
	case opSubmit:
		if r.eng != nil {
			batch := make([]model.Job, len(st.op.jobs))
			for i, j := range st.op.jobs {
				batch[i] = model.Job{Org: j.org, Size: j.size, Release: j.release}
			}
			t0 = time.Now()
			_, err = r.eng.Feed(batch)
		} else {
			t0 = time.Now()
			for _, j := range st.op.jobs {
				if _, err = r.fedn.Submit(j.cluster, j.org, j.size, j.release); err != nil {
					break
				}
			}
		}
		t1 = time.Now()
	case opAdvance:
		if r.eng != nil {
			var starts []sim.Start
			t0 = time.Now()
			starts, err = r.eng.Step(st.op.until)
			t1 = time.Now()
			for _, x := range starts {
				d.addDecision(int64(x.Job), x.Org, 0, x.Machine, x.At)
			}
		} else {
			var decs []fed.Decision
			t0 = time.Now()
			decs, err = r.fedn.Step(st.op.until)
			t1 = time.Now()
			r.untils = append(r.untils, st.op.until)
			for _, x := range decs {
				d.addDecision(x.Seq, x.Org, x.Cluster, x.Machine, x.At)
			}
		}
	case opState:
		// The evaluation Session.State performs, without its wire struct.
		t0 = time.Now()
		if r.eng != nil {
			ln.sink = r.eng.Result()
		} else {
			l := r.fedn.Ledger()
			ln.sink = [2]any{l.FederationPsi(), l.FederationValue()}
		}
		t1 = time.Now()
	case opCheckpoint:
		var data []byte
		t0 = time.Now()
		if r.eng != nil {
			data, err = r.eng.Snapshot()
		} else {
			data, err = r.fedn.Snapshot()
		}
		t1 = time.Now()
		ln.ckpt[st.sess] = data
	case opRestore:
		data := ln.ckpt[st.sess]
		t0 = time.Now()
		if r.eng != nil {
			r.eng, err = engine.Restore(r.alg, data)
		} else {
			r.fedn, err = fed.Restore(r.cfg.OrgNames, r.specs, r.policy, data)
		}
		t1 = time.Now()
	case opDelete:
		t0 = time.Now()
		t.runs[st.sess] = nil
		t1 = time.Now()
		if r.fedn != nil {
			t.retired[st.sess] = append(t.retired[st.sess], r)
		}
	}
	return
}

// run5 is one session at depth 5.
type run5 struct {
	alg      core.StepperAlgorithm
	s        core.Stepper
	now      model.Time
	reported int
	ids      []int // Inject scratch
}

// stepperTarget is depth 5: the core.Stepper contract driven the way
// engine.Engine drives it — append to the instance and Inject, StepNext
// until drained, FinishAt. Single-cluster, ungated sessions only.
type stepperTarget struct {
	w    *workload
	seed int64
	runs []*run5
}

func newStepperTarget(w *workload, seed int64) *stepperTarget {
	return &stepperTarget{w: w, seed: seed, runs: make([]*run5, w.sessions)}
}

func (t *stepperTarget) depth() string { return "D5" }

func (t *stepperTarget) exec(ln *lane, st *step) (t0, t1 time.Time, err error) {
	r := t.runs[st.sess]
	if r == nil && st.op.kind != opCreate {
		err = fmt.Errorf("no such session")
		return
	}
	switch st.op.kind {
	case opCreate:
		cfg := t.w.sessionConfig(t.seed, int(st.sess))
		var alg core.StepperAlgorithm
		if alg, err = buildAlg(cfg, cfg.Alg); err != nil {
			return
		}
		t0 = time.Now()
		var inst *model.Instance
		if inst, err = singleInstance(cfg); err == nil {
			t.runs[st.sess] = &run5{alg: alg, s: alg.NewStepper(inst, cfg.Seed)}
		}
		t1 = time.Now()
	case opSubmit:
		t0 = time.Now()
		inst := r.s.Instance()
		r.ids = r.ids[:0]
		for _, j := range st.op.jobs {
			id := len(inst.Jobs)
			r.ids = append(r.ids, id)
			inst.Jobs = append(inst.Jobs, model.Job{ID: id, Org: j.org, Size: j.size, Release: j.release})
		}
		err = r.s.Inject(r.ids)
		t1 = time.Now()
	case opAdvance:
		t0 = time.Now()
		for r.s.StepNext(st.op.until) {
		}
		r.s.FinishAt(st.op.until)
		r.now = st.op.until
		all := r.s.Starts()
		fresh := all[r.reported:]
		r.reported = len(all)
		t1 = time.Now()
		d := &ln.dig[st.sess]
		for _, x := range fresh {
			d.addDecision(int64(x.Job), x.Org, 0, x.Machine, x.At)
		}
	case opState:
		t0 = time.Now()
		ln.sink = r.s.ResultAt(r.now)
		t1 = time.Now()
	case opCheckpoint:
		var data []byte
		t0 = time.Now()
		var cp *core.Checkpoint
		if cp, err = r.s.Capture(r.now); err == nil {
			data, err = json.Marshal(cp)
		}
		t1 = time.Now()
		ln.ckpt[st.sess] = data
	case opRestore:
		data := ln.ckpt[st.sess]
		t0 = time.Now()
		var cp core.Checkpoint
		if err = json.Unmarshal(data, &cp); err == nil {
			if r.s, err = r.alg.RestoreStepper(&cp); err == nil {
				r.now, r.reported = cp.Now, len(r.s.Starts())
			}
		}
		t1 = time.Now()
	case opDelete:
		t0 = time.Now()
		t.runs[st.sess] = nil
		t1 = time.Now()
	}
	return
}
