// Package fed federates several member clusters into one scheduling
// system, extending the paper's single-cluster fairness model in the
// direction of its follow-up, "Fair non-monetary scheduling in
// federated clouds" (Pacholczyk & Rzadca): independent clusters — each
// running its own scheduling algorithm on its own machines — offload
// jobs to each other, and fairness is accounted both per cluster and
// federation-wide.
//
// The model: the federation has a fixed universe of organizations. Each
// member cluster contributes machines on behalf of those organizations
// (a [cluster][org] machine grid; zero entries are fine) and runs one
// core.StepperAlgorithm over its own machines through an
// internal/engine.Engine. Jobs are submitted at an origin cluster —
// the site where the owning organization hands them in — and at each
// release instant a pluggable delegation Policy inspects the current
// per-cluster Summaries (queue backlog, capacity, exchanged ψ/φ
// vectors) and picks the cluster that executes the job. A job that has
// started never moves (engines are non-preemptive), but a *queued* job
// can: under a MigratingPolicy, each staleness-delimited exchange
// refresh re-scores every still-queued job on the freshly gossiped
// view and migrates up to a per-round budget of them to strictly
// better members (engine-level queue withdrawal + re-feed, re-pointed
// in the ledger).
//
// All member engines advance in lockstep: Federation.Step(until) moves
// every cluster through the same sequence of release instants, so a
// federated run is a pure function of (member configurations, policy,
// seed, submission sequence) — byte-identical across reruns and across
// Snapshot/Restore (see TestFederationDeterminism).
//
// SetSource leaves that function untouched: it replaces the
// materialized pending queue with a bounded lookahead window pulled on
// demand from a JobSource (source.go), so replay memory is O(window) in
// the trace length; checkpoints persist only the stream cursor and
// restore resumes mid-stream against a re-opened source.
//
// The Ledger records every routing decision and aggregates per-cluster
// ψ-vectors into federation-wide totals, so the existing
// internal/metrics unfairness measures (Δψ, Δψ/p_tot) apply unchanged
// at either level.
package fed

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
)

// Pending is one job accepted by the federation but not yet released
// (and therefore not yet routed). Size is carried for feeding the
// executing engine; delegation policies never see it — routing is as
// non-clairvoyant as scheduling.
type Pending struct {
	Seq     int64      `json:"seq"`
	Cluster int        `json:"cluster"` // origin (submitting) cluster
	Org     int        `json:"org"`
	Size    model.Time `json:"size"`
	Release model.Time `json:"release"`
}

// Decision is one federated scheduling decision: the job (by federation
// sequence number) started on a machine of the executing cluster.
type Decision struct {
	Seq     int64      `json:"seq"`
	Org     int        `json:"org"`
	Cluster int        `json:"cluster"`
	Machine int        `json:"machine"`
	At      model.Time `json:"at"`
}

// ClusterSpec is the static configuration of one member cluster: its
// name, the algorithm it schedules with, and the machines each
// federation organization contributes at this site (indexed by the
// federation's organization universe; zero entries allowed).
type ClusterSpec struct {
	Name     string
	Alg      core.StepperAlgorithm
	Machines []int
}

// Member is one live member cluster.
type Member struct {
	name     string
	eng      *engine.Engine
	seqOf    []int64 // cluster-local job ID -> federation sequence number; -1 = withdrawn
	originOf []int   // cluster-local job ID -> origin (submitting) cluster; -1 = withdrawn
}

// setSeq records the federation identity of a freshly fed local job.
func (m *Member) setSeq(id int, seq int64, origin int) {
	for len(m.seqOf) <= id {
		m.seqOf = append(m.seqOf, -1)
		m.originOf = append(m.originOf, -1)
	}
	m.seqOf[id] = seq
	m.originOf[id] = origin
}

// Name returns the member's configured name.
func (m *Member) Name() string { return m.name }

// Engine returns the member's scheduling engine. Callers must not feed
// or step it directly — the federation drives all members in lockstep.
func (m *Member) Engine() *engine.Engine { return m.eng }

// Federation drives N member clusters in lockstep under one delegation
// policy. Like engines, federations are single-goroutine objects: the
// caller (the daemon's session lock, a test) serializes access.
type Federation struct {
	orgs     []string
	members  []*Member
	policy   Policy
	seed     int64
	now      model.Time
	nextSeq  int64
	pending  []Pending // sorted by (Release, Seq) once sortPending runs
	decs     []Decision
	reported int
	ledger   *Ledger

	// pendingDirty marks the pending queue as needing a (Release, Seq)
	// sort: Submit and the streaming pull both append in O(1) and the
	// sort happens once per read point, so bulk submission is O(n log n)
	// total instead of the old shift-insert's O(n²).
	pendingDirty bool

	// Streaming ingestion state (see SetSource). source == nil is the
	// materialized mode: every job arrives through Submit. With a source
	// attached the pending queue is a bounded lookahead window over the
	// stream; srcCursor counts consumed jobs (the checkpoint's resume
	// point), srcLast enforces the nondecreasing-release contract, and
	// srcErr pins the first pull failure (stepping past an unknowable
	// stream suffix would fabricate a different workload). srcNeeded is
	// set by Restore when the checkpoint recorded a live source: the
	// federation refuses to step until SetSource re-attaches one.
	source    JobSource
	srcWindow int
	srcCursor int64
	srcDone   bool
	srcLast   model.Time
	srcErr    error
	srcNeeded bool

	// provider is the staleness contract for every observation routing
	// and admission act on: with max age 0 (the default, the idealized
	// lockstep model) the exchange snapshot — member summaries plus the
	// routed-work matrix — is captured fresh at every decision instant;
	// with max age Δt > 0 the cached snapshot is reused until it is at
	// least Δt old, modeling periodic gossip. The cache is part of the
	// deterministic state and rides in checkpoints.
	provider *ctrl.CachedSnapshotProvider

	// Optional admission control plane. When nil (the default), releases
	// route directly — the pre-control-plane data path, kept verbatim.
	// When set, every release decomposes into prioritized
	// arrival→admission→routing events driven through the plane, and
	// only admitted jobs reach the members.
	plane     *ctrl.Plane
	admission *ctrl.PolicySpec
}

// exchange is the federation's observation payload: what one summary
// gossip carries. It rides in ctrl.View.Payload and, for checkpoints,
// in the ExSums/ExRouted fields.
type exchange struct {
	Sums   []Summary
	Routed [][]int64
}

// captureExchange is the federation's ctrl.CaptureFunc: a fresh
// observation of every member at instant t. The routed-work matrix is
// copied only for ledger-aware policies — everyone else never reads it.
func (f *Federation) captureExchange(model.Time) ctrl.View {
	ex := &exchange{Sums: f.summaries()}
	if usesLedger(f.policy) {
		ex.Routed = f.routedWorkCopy()
	}
	return ctrl.View{Load: loadOf(ex.Sums), Payload: ex}
}

// loadOf aggregates member summaries into the standardized load signal
// queue-depth admission policies read.
func loadOf(sums []Summary) ctrl.Load {
	var l ctrl.Load
	for _, s := range sums {
		l.Waiting += s.Waiting
		l.Capacity += s.Capacity
	}
	return l
}

// New builds a federation over the given organization universe. Each
// spec's Machines has one entry per organization; every cluster needs
// at least one machine in total. seed derives each member engine's
// seed, so two federations built from the same inputs are identical.
func New(orgs []string, specs []ClusterSpec, policy Policy, seed int64) (*Federation, error) {
	if len(orgs) == 0 {
		return nil, fmt.Errorf("fed: no organizations")
	}
	if len(orgs) > model.MaxOrgs {
		return nil, fmt.Errorf("fed: %d organizations exceed the maximum of %d", len(orgs), model.MaxOrgs)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("fed: no member clusters")
	}
	if policy == nil {
		return nil, fmt.Errorf("fed: nil delegation policy")
	}
	f := &Federation{
		orgs:   append([]string(nil), orgs...),
		policy: policy,
		seed:   seed,
		ledger: newLedger(len(specs), len(orgs)),
	}
	f.provider = ctrl.NewCachedSnapshotProvider(f.captureExchange, 0)
	for i, spec := range specs {
		if spec.Alg == nil {
			return nil, fmt.Errorf("fed: cluster %d (%s) has no algorithm", i, spec.Name)
		}
		if len(spec.Machines) != len(orgs) {
			return nil, fmt.Errorf("fed: cluster %d (%s) has %d machine entries for %d organizations",
				i, spec.Name, len(spec.Machines), len(orgs))
		}
		orgList := make([]model.Org, len(orgs))
		total := 0
		for o, name := range orgs {
			if spec.Machines[o] < 0 {
				return nil, fmt.Errorf("fed: cluster %d (%s) has negative machine count for %s", i, spec.Name, name)
			}
			orgList[o] = model.Org{Name: name, Machines: spec.Machines[o]}
			total += spec.Machines[o]
		}
		if total == 0 {
			return nil, fmt.Errorf("fed: cluster %d (%s) has no machines", i, spec.Name)
		}
		inst, err := model.NewInstance(orgList, nil)
		if err != nil {
			return nil, fmt.Errorf("fed: cluster %d (%s): %w", i, spec.Name, err)
		}
		f.members = append(f.members, &Member{
			name: spec.Name,
			eng:  engine.New(spec.Alg, inst, memberSeed(seed, i)),
		})
	}
	return f, nil
}

// memberSeed derives member i's engine seed from the federation seed —
// a SplitMix64-style mix so member streams are decorrelated but fully
// determined by (seed, i).
func memberSeed(seed int64, i int) int64 {
	x := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return int64(x)
}

// Orgs returns the federation's organization names.
func (f *Federation) Orgs() []string { return f.orgs }

// Members returns the member clusters in configuration order.
func (f *Federation) Members() []*Member { return f.members }

// Policy returns the delegation policy.
func (f *Federation) Policy() Policy { return f.policy }

// Staleness returns the summary-gossip staleness Δt (0 = fresh
// summaries at every release instant).
func (f *Federation) Staleness() model.Time { return f.provider.MaxAge() }

// SetStaleness configures the summary-gossip staleness Δt: member
// summaries (and the exchanged routed-work matrix) refresh only when
// the cached snapshot is at least Δt old, instead of at every release
// instant. Δt ≤ 0 restores the idealized always-fresh exchange.
// Configure it before stepping; changing it mid-run invalidates the
// cached snapshot. It is sugar for SnapshotProvider().SetMaxAge — the
// one staleness contract both routing and admission observe through.
func (f *Federation) SetStaleness(dt model.Time) { f.provider.SetMaxAge(dt) }

// SnapshotProvider returns the bounded-staleness provider every
// routing and admission decision observes the federation through.
func (f *Federation) SnapshotProvider() *ctrl.CachedSnapshotProvider { return f.provider }

// SetAdmission installs (or, with a nil spec, removes) an admission
// control plane: releases then decompose into prioritized
// arrival → admission → routing events, and only admitted jobs reach
// the members — rejected ones leave the system, deferred ones retry at
// the instant the policy names. The plane observes the federation
// through the same bounded-staleness provider routing uses. Configure
// it before stepping: installing a plane mid-run would strand jobs
// already routed outside its accounting.
func (f *Federation) SetAdmission(spec *ctrl.PolicySpec) error {
	if spec == nil {
		f.plane = nil
		f.admission = nil
		return nil
	}
	policy, err := spec.Build()
	if err != nil {
		return err
	}
	cp := *spec
	f.admission = &cp
	f.plane = ctrl.NewPlane(policy, f.provider, len(f.orgs))
	return nil
}

// Admission returns the installed admission spec, or nil when the
// control plane is off.
func (f *Federation) Admission() *ctrl.PolicySpec { return f.admission }

// AdmissionStats returns the control plane's per-organization
// admission accounting, or nil when the plane is off.
func (f *Federation) AdmissionStats() *metrics.AdmissionStats {
	if f.plane == nil {
		return nil
	}
	return f.plane.Stats()
}

// Now returns the federation clock: the instant of the last Step.
func (f *Federation) Now() model.Time { return f.now }

// Seed returns the federation's seed.
func (f *Federation) Seed() int64 { return f.seed }

// PendingCount returns the number of accepted-but-unreleased jobs.
func (f *Federation) PendingCount() int { return len(f.pending) }

// Submitted returns the number of jobs accepted so far.
func (f *Federation) Submitted() int64 { return f.nextSeq }

// Submit accepts one job at the origin cluster and returns its
// federation sequence number. The job must name a valid origin and
// organization, have size ≥ 1, and be released no earlier than the
// federation clock. It stays pending until its release instant, when
// the delegation policy routes it to the executing cluster.
func (f *Federation) Submit(origin, org int, size, release model.Time) (int64, error) {
	if origin < 0 || origin >= len(f.members) {
		return 0, fmt.Errorf("fed: submit: unknown cluster %d", origin)
	}
	if org < 0 || org >= len(f.orgs) {
		return 0, fmt.Errorf("fed: submit: unknown organization %d", org)
	}
	if size < 1 {
		return 0, fmt.Errorf("fed: submit: job size %d; sizes must be >= 1", size)
	}
	if release < f.now {
		return 0, fmt.Errorf("fed: submit: release %d before federation time %d", release, f.now)
	}
	p := Pending{Seq: f.nextSeq, Cluster: origin, Org: org, Size: size, Release: release}
	f.nextSeq++
	f.appendPending(p)
	f.ledger.Submitted++
	return p.Seq, nil
}

// SubmitJobs accepts a batch of jobs at one origin cluster (Job.ID is
// ignored; Release/Size/Org are used). A convenience for feeding
// generated workloads — see internal/gen.FedScenario.
func (f *Federation) SubmitJobs(origin int, jobs []model.Job) error {
	for _, j := range jobs {
		if _, err := f.Submit(origin, j.Org, j.Size, j.Release); err != nil {
			return err
		}
	}
	return nil
}

// appendPending enqueues one accepted job in O(1), marking the queue
// for a lazy sort when the append breaks (Release, Seq) order. The old
// shift-insert paid an O(n) copy per out-of-order submission — O(n²)
// for bulk per-cluster sorted streams, whose interleaving is almost
// never globally sorted.
func (f *Federation) appendPending(p Pending) {
	if n := len(f.pending); n > 0 && !f.pendingDirty {
		q := f.pending[n-1]
		if p.Release < q.Release || (p.Release == q.Release && p.Seq < q.Seq) {
			f.pendingDirty = true
		}
	}
	f.pending = append(f.pending, p)
}

// sortPending restores the (Release, Seq) order every read point
// assumes. Sequence numbers are unique, so the order is total.
func (f *Federation) sortPending() {
	if !f.pendingDirty {
		return
	}
	// slices.SortFunc, not sort.Slice: the closure-through-interface
	// path allocates on every dirty sort, which the control-plane
	// allocation budget (TestControlPlaneAllocBudget) counts.
	slices.SortFunc(f.pending, func(a, b Pending) int {
		if c := cmp.Compare(a.Release, b.Release); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	f.pendingDirty = false
}

// NextEventTime returns the earliest instant at which anything can
// happen: the next pending release (pulling from an attached source if
// the window is empty) or the earliest member event, or sim.MaxTime
// when the federation is drained. A source pull failure here surfaces
// at the next Step — the error is sticky.
func (f *Federation) NextEventTime() model.Time {
	_ = f.fill()
	f.sortPending()
	next := sim.MaxTime
	if len(f.pending) > 0 {
		next = f.pending[0].Release
	}
	if f.plane != nil {
		if t, ok := f.plane.NextEventTime(); ok && t < next {
			next = t
		}
	}
	for _, m := range f.members {
		if t := m.eng.NextEventTime(); t < next {
			next = t
		}
	}
	return next
}

// Step advances the federation to exactly `until`. Members move in
// lockstep through every pending release instant at or before `until`:
// the engines first advance to the instant, the policy then routes the
// releases using fresh per-cluster summaries, the routed jobs are fed
// to their executing engines and dispatched, and the loop continues.
// It returns the federated scheduling decisions made since the
// previous Step (or since Restore).
//
// The returned slice aliases the federation's decision log — the same
// read-only contract engine.Step documents: it is valid until the next
// mutating call and must not be modified. Callers that keep decisions
// across steps copy what they need (the daemon's wire conversion
// already does); the steady-state hot path allocates nothing.
func (f *Federation) Step(until model.Time) ([]Decision, error) {
	if until < f.now {
		return nil, fmt.Errorf("fed: step to %d before federation time %d", until, f.now)
	}
	if f.srcNeeded && !f.srcDone {
		// A drained source (srcDone) needs no re-attachment: the stream
		// has nothing left to pull and stepping is safe without it.
		return nil, fmt.Errorf("%w: restored at source cursor %d; attach the source with SetSource before stepping", ErrNoSource, f.srcCursor)
	}
	if f.plane != nil {
		if err := f.stepPlane(until); err != nil {
			return nil, err
		}
	} else if err := f.stepDirect(until); err != nil {
		return nil, err
	}
	if err := f.advanceMembers(until); err != nil {
		return nil, err
	}
	f.now = until
	fresh := f.decs[f.reported:]
	f.reported = len(f.decs)
	return fresh, nil
}

// stepDirect is the plane-off release loop — the pre-control-plane data
// path, kept verbatim: every release is admitted implicitly and routed
// at its release instant.
func (f *Federation) stepDirect(until model.Time) error {
	for {
		if err := f.fill(); err != nil {
			return err
		}
		f.sortPending()
		if len(f.pending) == 0 || f.pending[0].Release > until {
			return nil
		}
		t := f.pending[0].Release
		// Batch completeness: with a streaming source attached, every job
		// releasing at t must be resident before the instant routes, or
		// the window size would split one exchange-frozen batch in two.
		if err := f.fillThrough(t); err != nil {
			return err
		}
		f.sortPending()
		if err := f.advanceMembers(t); err != nil {
			return err
		}
		n := 0
		for n < len(f.pending) && f.pending[n].Release == t {
			n++
		}
		batch := f.pending[:n]
		sums, routed, refreshed := f.exchangeAt(t)
		// A fresh exchange is the migration trigger: queued jobs are
		// re-scored on the newly gossiped view before the instant's
		// releases route on the same view.
		if refreshed {
			if err := f.redelegate(t, sums, routed); err != nil {
				return err
			}
		}
		// Policies are pure functions of (org, origin, exchange), and
		// the exchange is frozen for the whole batch, so same-instant
		// jobs with the same owner and origin route identically — one
		// policy evaluation covers the burst (FedREF's exact Shapley
		// pass is the expensive case this saves).
		var memo map[[2]int]int
		if n > 1 {
			memo = make(map[[2]int]int, n)
		}
		for _, p := range batch {
			key := [2]int{p.Org, p.Cluster}
			target, seen := memo[key]
			if !seen {
				target = f.route(p, sums, routed)
				if memo != nil {
					memo[key] = target
				}
			}
			if target < 0 || target >= len(f.members) {
				return fmt.Errorf("fed: policy %q routed job %d to unknown cluster %d",
					f.policy.Name(), p.Seq, target)
			}
			m := f.members[target]
			ids, err := m.eng.Feed([]model.Job{{Org: p.Org, Size: p.Size, Release: t}})
			if err != nil {
				return fmt.Errorf("fed: feed cluster %d (%s): %w", target, m.name, err)
			}
			m.setSeq(ids[0], p.Seq, p.Cluster)
			f.ledger.route(p, target)
		}
		f.pending = append(f.pending[:0], f.pending[n:]...)
		// Same-instant dispatch of the freshly routed releases.
		if err := f.advanceMembers(t); err != nil {
			return err
		}
		f.now = t
	}
}

// stepPlane is the plane-on release loop: pending releases enter the
// control plane as ArrivalEvents at their release instants, and the
// plane drives the arrival → admission → routing decomposition in
// (timestamp, priority, seqID) order — deferred admissions wake the
// loop at their retry instants even when no release is due. Members
// advance to each decision instant before the plane acts, exactly as
// the direct path advances them before routing a batch, so with
// AlwaysAdmit and staleness 0 the two paths are byte-identical
// (TestControlPlaneDifferential).
func (f *Federation) stepPlane(until model.Time) error {
	sink := &fedSink{f: f}
	for {
		if err := f.fill(); err != nil {
			return err
		}
		f.sortPending()
		t := sim.MaxTime
		if len(f.pending) > 0 {
			t = f.pending[0].Release
		}
		if pt, ok := f.plane.NextEventTime(); ok && pt < t {
			t = pt
		}
		if t > until {
			return nil
		}
		// Batch completeness, as in the direct path: the whole release
		// burst at t must enter the plane before it advances.
		if err := f.fillThrough(t); err != nil {
			return err
		}
		f.sortPending()
		if err := f.advanceMembers(t); err != nil {
			return err
		}
		n := 0
		for n < len(f.pending) && f.pending[n].Release == t {
			p := f.pending[n]
			f.plane.Arrive(ctrl.Job{Seq: p.Seq, Org: p.Org, Origin: p.Cluster, Size: p.Size, Release: p.Release}, t)
			n++
		}
		f.pending = append(f.pending[:0], f.pending[n:]...)
		if err := f.plane.Advance(t, sink); err != nil {
			return err
		}
		// Same-instant dispatch of the freshly routed admissions.
		if err := f.advanceMembers(t); err != nil {
			return err
		}
		f.now = t
	}
}

// fedSink is the federation's data-plane half: the control plane hands
// it admitted jobs to route and snapshot-refresh edges to re-delegate
// on.
type fedSink struct {
	f      *Federation
	memoAt model.Time
	memoOK bool
	memo   map[[2]int]int
}

// Refreshed fires the queued-job migration pass on each fresh exchange,
// exactly where the direct path fires it: before any of the instant's
// routing decisions act on the new view.
func (s *fedSink) Refreshed(t model.Time, view ctrl.View) error {
	ex := view.Payload.(*exchange)
	return s.f.redelegate(t, ex.Sums, ex.Routed)
}

// Route feeds one admitted job to the cluster the delegation policy
// picks. Policies are pure functions of (org, origin, exchange) and the
// exchange is frozen per instant, so evaluations are memoized per
// (instant, org, origin) — the same burst-collapsing the direct path's
// batch memo does.
func (s *fedSink) Route(job ctrl.Job, t model.Time, view ctrl.View) error {
	f := s.f
	ex := view.Payload.(*exchange)
	if !s.memoOK || s.memoAt != t {
		s.memo, s.memoAt, s.memoOK = nil, t, true
	}
	p := Pending{Seq: job.Seq, Cluster: job.Origin, Org: job.Org, Size: job.Size, Release: job.Release}
	key := [2]int{p.Org, p.Cluster}
	target, seen := s.memo[key]
	if !seen {
		target = f.route(p, ex.Sums, ex.Routed)
		if s.memo == nil {
			s.memo = make(map[[2]int]int)
		}
		s.memo[key] = target
	}
	if target < 0 || target >= len(f.members) {
		return fmt.Errorf("fed: policy %q routed job %d to unknown cluster %d",
			f.policy.Name(), p.Seq, target)
	}
	m := f.members[target]
	ids, err := m.eng.Feed([]model.Job{{Org: p.Org, Size: p.Size, Release: t}})
	if err != nil {
		return fmt.Errorf("fed: feed cluster %d (%s): %w", target, m.name, err)
	}
	m.setSeq(ids[0], p.Seq, p.Cluster)
	f.ledger.route(p, target)
	return nil
}

// StepToNextEvent advances to the next pending event instant, if one
// exists, and returns its decisions. The second result reports whether
// an event existed.
func (f *Federation) StepToNextEvent() ([]Decision, bool, error) {
	t := f.NextEventTime()
	if t == sim.MaxTime {
		return nil, false, nil
	}
	decs, err := f.Step(t)
	return decs, true, err
}

// advanceMembers steps every member engine to t and folds their fresh
// starts into the federated decision log in configuration order.
func (f *Federation) advanceMembers(t model.Time) error {
	for c, m := range f.members {
		starts, err := m.eng.Step(t)
		if err != nil {
			return fmt.Errorf("fed: advance cluster %d (%s): %w", c, m.name, err)
		}
		for _, s := range starts {
			f.decs = append(f.decs, Decision{
				Seq: m.seqOf[s.Job], Org: s.Org, Cluster: c, Machine: s.Machine, At: s.At,
			})
		}
	}
	return nil
}

// Decisions returns the full federated decision log so far.
func (f *Federation) Decisions() []Decision { return f.decs }

// route asks the policy for one job's executing cluster, through the
// ledger-aware entry point when the policy reads federation-level
// accounting (FedREF) and the plain one otherwise.
func (f *Federation) route(p Pending, sums []Summary, routed [][]int64) int {
	if lp, ok := f.policy.(LedgerPolicy); ok {
		return lp.RouteLedger(p.Org, p.Cluster, sums, routed)
	}
	return f.policy.Route(p.Org, p.Cluster, sums)
}

// exchangeAt returns the exchange snapshot the policy routes on at
// instant t, observed through the bounded-staleness provider: fresh at
// every call when staleness is 0, otherwise the cached snapshot,
// refreshed once it is at least Δt old. The snapshot is taken before
// the instant's batch is routed, so every job in a batch routes on the
// same view. The third result reports whether this call took a fresh
// snapshot — the staleness-delimited "gossip arrived" edge the
// migration pass fires on (with staleness 0 every routing instant is
// such an edge).
func (f *Federation) exchangeAt(t model.Time) ([]Summary, [][]int64, bool) {
	view, refreshed := f.provider.Observe(t)
	ex := view.Payload.(*exchange)
	return ex.Sums, ex.Routed, refreshed
}

// redelegate is the migration pass: fired at each exchange refresh, it
// re-scores every still-queued routed job under the delegation policy
// — the job's current holder playing the origin role, so the policies'
// origin-preferring tie-breaks make "stay" the default — and migrates
// it when the policy now picks a different (strictly better) member:
// the queued job is withdrawn from its holder's engine, re-fed to the
// new member at the current instant, and re-pointed in the ledger. At
// most budget jobs move per refresh, in deterministic (member, local
// job ID) order.
//
// The whole pass scores against the one frozen exchange snapshot —
// migrations do not update the view mid-round, exactly as routing a
// same-instant batch doesn't. The budget is what bounds the herd a
// stale view could otherwise stampede.
func (f *Federation) redelegate(t model.Time, sums []Summary, routed [][]int64) error {
	mp, ok := f.policy.(MigratingPolicy)
	if !ok {
		return nil
	}
	budget := mp.MigrationBudget()
	if budget <= 0 || len(f.members) <= 1 {
		return nil
	}
	// Snapshot the queued candidates before moving anything: a job
	// migrated this round must not be re-scored at its new home within
	// the same round.
	type candidate struct{ cluster, id int }
	var cands []candidate
	for c, m := range f.members {
		jobs := m.eng.Instance().Jobs
		started := make([]bool, len(jobs))
		for _, s := range m.eng.Decisions() {
			started[s.Job] = true
		}
		for id, seq := range m.seqOf {
			if seq >= 0 && !started[id] {
				cands = append(cands, candidate{c, id})
			}
		}
	}
	moved := 0
	// The exchange is frozen for the whole pass, so scoring is a pure
	// function of (org, holder) — one policy evaluation covers every
	// queued job of the same owner at the same cluster (FedREF's exact
	// Shapley pass is the expensive case this saves, exactly as the
	// batch-routing memo below).
	memo := make(map[[2]int]int)
	for _, cand := range cands {
		if moved >= budget {
			break
		}
		m := f.members[cand.cluster]
		job := m.eng.Instance().Jobs[cand.id]
		key := [2]int{job.Org, cand.cluster}
		target, seen := memo[key]
		if !seen {
			target = f.route(Pending{Org: job.Org, Cluster: cand.cluster}, sums, routed)
			memo[key] = target
		}
		if target == cand.cluster {
			continue
		}
		if target < 0 || target >= len(f.members) {
			return fmt.Errorf("fed: policy %q migrated a job of organization %d to unknown cluster %d",
				f.policy.Name(), job.Org, target)
		}
		if err := m.eng.Withdraw(cand.id); err != nil {
			return fmt.Errorf("fed: withdraw from cluster %d (%s): %w", cand.cluster, m.name, err)
		}
		seq, origin := m.seqOf[cand.id], m.originOf[cand.id]
		m.seqOf[cand.id], m.originOf[cand.id] = -1, -1
		tm := f.members[target]
		ids, err := tm.eng.Feed([]model.Job{{Org: job.Org, Size: job.Size, Release: t}})
		if err != nil {
			return fmt.Errorf("fed: migrate to cluster %d (%s): %w", target, tm.name, err)
		}
		tm.setSeq(ids[0], seq, origin)
		f.ledger.migrate(origin, cand.cluster, target, int64(job.Size))
		moved++
	}
	return nil
}

// routedWorkCopy snapshots the ledger's routed-work matrix, so the
// exchange stays frozen while routing appends to the live ledger.
func (f *Federation) routedWorkCopy() [][]int64 {
	out := make([][]int64, len(f.ledger.RoutedWork))
	for i, row := range f.ledger.RoutedWork {
		out[i] = append([]int64(nil), row...)
	}
	return out
}

// summaries exports every member's Summary at the current lockstep
// instant. Engines stand exactly at the routing instant, so the
// exchanged ψ/φ vectors are the values a real federation peer would
// have just gossiped.
func (f *Federation) summaries() []Summary {
	sums := make([]Summary, len(f.members))
	for i, m := range f.members {
		res := m.eng.Result()
		inst := m.eng.Instance()
		orgCap := make([]int64, len(inst.Orgs))
		for o := range inst.Orgs {
			orgCap[o] = inst.Orgs[o].Capacity()
		}
		sums[i] = Summary{
			Cluster:     i,
			Now:         m.eng.Now(),
			Waiting:     m.eng.Waiting(),
			Capacity:    inst.TotalCapacity(),
			OrgCapacity: orgCap,
			Psi:         res.Psi,
			Phi:         res.Phi,
			Value:       res.Value,
			Executed:    res.Ptot,
			Utilization: res.Utilization,
		}
	}
	return sums
}

// Ledger returns the federation ledger with the per-cluster accounting
// columns (ψ, value, executed units) refreshed from the live engines at
// the current clock.
func (f *Federation) Ledger() *Ledger {
	f.ledger.sync(f)
	return f.ledger
}

// CheckConservation verifies the federation's bookkeeping invariants:
// every accepted job is either still pending or held by exactly one
// cluster (a migrated job leaves only a tombstone behind), routing
// counts match fed counts net of migrations, sequence numbers map
// one-to-one across live jobs, and the ledger's federation-wide totals
// equal the sums of the members' own accounting. It is the executable
// statement of "no job is lost or duplicated under delegation or
// migration".
func (f *Federation) CheckConservation() error {
	l := f.Ledger()
	var fedTotal int64
	for c, m := range f.members {
		fedTotal += l.Fed[c]
		if got := int64(len(m.eng.Instance().Jobs) - m.eng.Withdrawn()); got != l.Fed[c] {
			return fmt.Errorf("fed: cluster %d holds %d live jobs, ledger says %d fed", c, got, l.Fed[c])
		}
	}
	if f.plane == nil {
		if fedTotal+int64(len(f.pending)) != l.Submitted {
			return fmt.Errorf("fed: %d fed + %d pending != %d submitted", fedTotal, len(f.pending), l.Submitted)
		}
	} else {
		// With admission control in the path the accounting splits: a
		// submitted job is pending, or released into the control plane —
		// and then admitted (fed to a member), rejected, or deferred
		// (waiting on a retry event). The plane's own per-organization
		// law (admitted + rejected + deferred == released) composes with
		// the federation-level one here.
		st := f.plane.Stats()
		if err := st.CheckConserved(); err != nil {
			return fmt.Errorf("fed: %w", err)
		}
		if st.TotalAdmitted() != fedTotal {
			return fmt.Errorf("fed: %d admitted != %d fed", st.TotalAdmitted(), fedTotal)
		}
		if st.TotalReleased()+int64(len(f.pending)) != l.Submitted {
			return fmt.Errorf("fed: %d released + %d pending != %d submitted",
				st.TotalReleased(), len(f.pending), l.Submitted)
		}
	}
	var routed int64
	for _, row := range l.Routed {
		for _, n := range row {
			routed += n
		}
	}
	if routed != fedTotal {
		return fmt.Errorf("fed: %d routed != %d fed", routed, fedTotal)
	}
	var migrations int64
	for c := range l.Migrated {
		if l.Migrated[c][c] != 0 {
			return fmt.Errorf("fed: cluster %d migrated %d jobs to itself", c, l.Migrated[c][c])
		}
		for _, n := range l.Migrated[c] {
			if n < 0 {
				return fmt.Errorf("fed: negative migration count")
			}
			migrations += n
		}
	}
	if migrations != l.Migrations {
		return fmt.Errorf("fed: migration matrix sums to %d, counter says %d", migrations, l.Migrations)
	}
	// The routed-work columns — the assigned-work accounting FedREF
	// routes on — must equal the work actually held by each cluster
	// (tombstoned jobs migrated away, so their work counts at their new
	// home, not here).
	for c, m := range f.members {
		var assigned int64
		for o := range l.RoutedWork {
			assigned += l.RoutedWork[o][c]
		}
		var held int64
		for id, j := range m.eng.Instance().Jobs {
			if m.seqOf[id] >= 0 {
				held += int64(j.Size)
			}
		}
		if assigned != held {
			return fmt.Errorf("fed: cluster %d holds %d work units, ledger says %d assigned", c, held, assigned)
		}
	}
	seen := make(map[int64]bool)
	for c, m := range f.members {
		jobs := m.eng.Instance().Jobs
		if len(m.seqOf) != len(jobs) || len(m.originOf) != len(jobs) {
			return fmt.Errorf("fed: cluster %d has %d/%d seq/origin mappings for %d jobs",
				c, len(m.seqOf), len(m.originOf), len(jobs))
		}
		tombstones := 0
		for id, seq := range m.seqOf {
			if seq < 0 {
				tombstones++
				continue
			}
			if seq >= f.nextSeq {
				return fmt.Errorf("fed: cluster %d maps a job to invalid sequence %d", c, seq)
			}
			if m.originOf[id] < 0 || m.originOf[id] >= len(f.members) {
				return fmt.Errorf("fed: cluster %d job %d has invalid origin %d", c, id, m.originOf[id])
			}
			if seen[seq] {
				return fmt.Errorf("fed: job %d fed to more than one cluster", seq)
			}
			seen[seq] = true
		}
		if got := m.eng.Withdrawn(); tombstones != got {
			return fmt.Errorf("fed: cluster %d has %d tombstones but %d withdrawn jobs", c, tombstones, got)
		}
	}
	for c, m := range f.members {
		psi := m.eng.Result().Psi
		for o := range psi {
			if psi[o] != l.Psi[c][o] {
				return fmt.Errorf("fed: ledger ψ[%d][%d]=%d, engine reports %d", c, o, l.Psi[c][o], psi[o])
			}
		}
	}
	return nil
}
