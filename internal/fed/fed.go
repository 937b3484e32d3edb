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
// vectors) and picks the cluster that executes the job: by the largest
// of a Scorer's per-exchange scores, or else by one Route or RouteLedger
// call. A job that has started never moves (engines are
// non-preemptive), but a *queued* job can: under Migrating, each
// staleness-delimited exchange refresh re-scores the jobs the members
// hold queued on the freshly gossiped view and migrates up to a
// per-round budget of them to strictly better members (engine-level
// queue withdrawal + re-feed, re-pointed in the ledger).
//
// All member engines advance in lockstep: Federation.Step(until) moves
// every cluster through the same sequence of release instants, so a
// federated run is a pure function of (member configurations, policy,
// seed, submission sequence) — byte-identical across reruns and across
// Snapshot/Restore (see TestFederationDeterminism).
//
// Submit and SubmitJobs, its batch form, are the only ways a job enters.
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

// job is the release as the control plane and the sink see it.
func (p Pending) job() ctrl.Job {
	return ctrl.Job{Seq: p.Seq, Org: p.Org, Origin: p.Cluster, Size: p.Size, Release: p.Release}
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
	// orgCapacity is the member's capacity per organization, taken from
	// its configuration once (New, Restore) and shared by every summary
	// of it.
	orgCapacity []int64
	// queued is a migration pass's scratch: the member's queued jobs,
	// snapshot before anything moves.
	queued []int
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
	policy   Policy  // as configured; checkpoints carry its name
	routing  routing // policy, resolved
	seed     int64
	pending  []Pending // sorted by (Release, Seq) once sortPending runs
	decs     []Decision
	reported int
	ledger   *Ledger

	// pendingDirty marks the pending queue as needing a (Release, Seq)
	// sort: Submit appends in O(1) and the sort happens once per read
	// point, so bulk submission is O(n log n) total instead of the old
	// shift-insert's O(n²).
	pendingDirty bool

	// provider is the staleness contract for every observation routing
	// and admission act on: with max age 0 (the default, the idealized
	// lockstep model) the exchange snapshot — member summaries plus the
	// routed-work matrix — is captured fresh at every decision instant;
	// with max age Δt > 0 the cached snapshot is reused until it is at
	// least Δt old, modeling periodic gossip. The cache is part of the
	// deterministic state and rides in checkpoints.
	provider *ctrl.CachedSnapshotProvider

	// Optional admission control plane, plugged in at the release loop's
	// deliver step. When nil (the default) every release reaches the sink
	// at its release instant; when set, each release waits in the plane
	// for the admission policy's verdict, and only admitted jobs reach
	// the sink.
	plane     *ctrl.Plane
	admission *ctrl.PolicySpec

	// sink is the federation's data-plane half — the one place jobs are
	// routed and fed to members, with or without a plane in front of it.
	sink fedSink
}

// routing is a delegation policy resolved once, by New and Restore: the
// policy that routes — a Migrating wrapper's Inner — with its Scorer and
// LedgerPolicy sides, nil when it has none, and the migration budget.
type routing struct {
	policy Policy
	scorer Scorer
	ledger LedgerPolicy
	budget int // migrations per exchange refresh; ≤ 0 disables the pass
}

// resolve unwraps p into the routing the federation runs.
func resolve(p Policy) routing {
	var r routing
	if m, ok := p.(Migrating); ok {
		p, r.budget = m.Inner, m.Budget
	}
	r.policy = p
	r.scorer, _ = p.(Scorer)
	r.ledger, _ = p.(LedgerPolicy)
	return r
}

// exchange is the federation's observation payload: what one summary
// gossip carries. It rides in ctrl.View.Payload and, for checkpoints,
// in the ExSums/ExRouted fields.
type exchange struct {
	Sums   []Summary
	Routed [][]int64
	// scores is a Scorer policy's vector on this exchange, evaluated by
	// the first route that needs it. It is derived, so no checkpoint
	// carries it: a restored exchange evaluates it again.
	scores []float64
}

// captureExchange is the federation's ctrl.CaptureFunc: a fresh
// observation of every member at instant t. The routed-work matrix is
// copied only for ledger-aware policies — everyone else never reads it.
func (f *Federation) captureExchange(model.Time) ctrl.View {
	ex := &exchange{Sums: f.summaries()}
	if f.routing.ledger != nil {
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
	if err := checkMembers(len(specs)); err != nil {
		return nil, err
	}
	if policy == nil {
		return nil, fmt.Errorf("fed: nil delegation policy")
	}
	f := &Federation{
		orgs:    append([]string(nil), orgs...),
		policy:  policy,
		routing: resolve(policy),
		seed:    seed,
		ledger:  newLedger(len(specs), len(orgs)),
	}
	f.sink = fedSink{f: f}
	f.provider = ctrl.NewCachedSnapshotProvider(f.captureExchange, 0)
	orgList := make([]model.Org, len(orgs)) // NewInstance copies it: one scratch for every member
	for i, spec := range specs {
		if spec.Alg == nil {
			return nil, fmt.Errorf("fed: cluster %d (%s) has no algorithm", i, spec.Name)
		}
		if len(spec.Machines) != len(orgs) {
			return nil, fmt.Errorf("fed: cluster %d (%s) has %d machine entries for %d organizations",
				i, spec.Name, len(spec.Machines), len(orgs))
		}
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
			name:        spec.Name,
			eng:         engine.New(spec.Alg, inst, memberSeed(seed, i)),
			orgCapacity: orgCapacities(inst),
		})
	}
	return f, nil
}

// checkMembers refuses a member count the federation game cannot hold:
// members are its players.
func checkMembers(n int) error {
	if n < 1 || n > model.MaxOrgs {
		return fmt.Errorf("fed: %d member clusters; the federation game takes 1 to a maximum of %d players", n, model.MaxOrgs)
	}
	return nil
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
// cached snapshot.
func (f *Federation) SetStaleness(dt model.Time) { f.provider.SetMaxAge(dt) }

// SetAdmission installs (or, with a nil spec, removes) an admission
// control plane: each release then waits for the admission policy's
// verdict, and only admitted jobs reach the members — rejected ones
// leave the system, deferred ones retry at the instant the policy names. The plane observes the federation
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

// Now returns the federation clock: the instant of the last Step, at
// which every member stands.
func (f *Federation) Now() model.Time { return f.members[0].eng.Now() }

// PendingCount returns the number of accepted-but-unreleased jobs.
func (f *Federation) PendingCount() int { return len(f.pending) }

// Submitted returns the number of jobs accepted so far.
func (f *Federation) Submitted() int64 { return f.ledger.Submitted }

// Submit accepts one job at the origin cluster and returns its
// federation sequence number. The job must name a valid origin and
// organization, have size ≥ 1, and be released no earlier than the
// federation clock. It stays pending until its release instant, when
// the delegation policy routes it to the executing cluster.
func (f *Federation) Submit(origin, org int, size, release model.Time) (int64, error) {
	j := SourceJob{Cluster: origin, Org: org, Size: size, Release: release}
	if err := f.checkJob(j); err != nil {
		return 0, fmt.Errorf("fed: submit: %w", err)
	}
	return f.accept(j), nil
}

// SubmitJobs accepts a batch of jobs, each at its own origin cluster,
// and returns their sequence numbers in order. The batch is
// all-or-nothing: every job is checked before any is accepted, so a
// rejected batch leaves the federation untouched and can be retried.
func (f *Federation) SubmitJobs(jobs []SourceJob) ([]int64, error) {
	for i, j := range jobs {
		if err := f.checkJob(j); err != nil {
			return nil, fmt.Errorf("fed: submit: job %d: %w", i, err)
		}
	}
	seqs := make([]int64, len(jobs))
	for i, j := range jobs {
		seqs[i] = f.accept(j)
	}
	return seqs, nil
}

// checkJob is the acceptance check every job entering the federation
// passes.
func (f *Federation) checkJob(j SourceJob) error {
	switch {
	case j.Cluster < 0 || j.Cluster >= len(f.members):
		return fmt.Errorf("unknown cluster %d", j.Cluster)
	case j.Org < 0 || j.Org >= len(f.orgs):
		return fmt.Errorf("unknown organization %d", j.Org)
	case j.Size < 1:
		return fmt.Errorf("job size %d; sizes must be >= 1", j.Size)
	case j.Release < f.Now():
		return fmt.Errorf("release %d before federation time %d", j.Release, f.Now())
	}
	return nil
}

// accept enqueues one checked job under the next sequence number.
func (f *Federation) accept(j SourceJob) int64 {
	p := Pending{Seq: f.ledger.Submitted, Cluster: j.Cluster, Org: j.Org, Size: j.Size, Release: j.Release}
	f.ledger.Submitted++
	f.appendPending(p)
	return p.Seq
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

// nextInstant returns the next decision instant — the earliest pending
// release or control-plane event — or sim.MaxTime when neither exists.
// The pending queue must be sorted.
func (f *Federation) nextInstant() model.Time {
	t := sim.MaxTime
	if len(f.pending) > 0 {
		t = f.pending[0].Release
	}
	if f.plane != nil {
		if pt, ok := f.plane.NextEventTime(); ok && pt < t {
			t = pt
		}
	}
	return t
}

// NextEventTime returns the earliest instant at which anything can
// happen: the next decision instant or the earliest member event, or
// sim.MaxTime when the federation is drained.
func (f *Federation) NextEventTime() model.Time {
	f.sortPending()
	next := f.nextInstant()
	for _, m := range f.members {
		if t := m.eng.NextEventTime(); t < next {
			next = t
		}
	}
	return next
}

// Step advances the federation to exactly `until`. Members move in
// lockstep through every decision instant at or before `until` — each
// pending release instant and, with a control plane installed, each
// pending control event (a deferred admission retrying). Control
// precedes data within an instant: the members advance only through
// t−1, the instant's releases are delivered (routed, or admitted and
// routed) on a view of that state, and the members then process t once,
// jobs that were waiting and jobs that just reached them together — the
// order a single cluster sees when every job is fed before its release.
// It returns the federated scheduling decisions made since the previous
// Step (or since Restore), ordered by instant, then member, each
// member's in its own order: members are advanced window by window, and
// a window ends at each delivery instant and at until, so the order they
// were folded in would depend on how a caller chunks its Steps.
//
// The returned slice aliases the federation's decision log — the same
// read-only contract engine.Step documents: it is valid until the next
// mutating call and must not be modified. Callers that keep decisions
// across steps copy what they need (the daemon's wire conversion
// already does); the steady-state hot path allocates nothing.
func (f *Federation) Step(until model.Time) ([]Decision, error) {
	if until < f.Now() {
		return nil, fmt.Errorf("fed: step to %d before federation time %d", until, f.Now())
	}
	f.sortPending()
	for {
		t := f.nextInstant()
		// Through t−1, or to until once nothing is due by then; never
		// back before the instant the members stand at.
		if err := f.advanceMembers(max(min(t-1, until), f.Now())); err != nil {
			return nil, err
		}
		if t > until {
			break
		}
		n := 0
		for n < len(f.pending) && f.pending[n].Release == t {
			n++
		}
		if err := f.deliver(t, f.pending[:n]); err != nil {
			return nil, err
		}
		f.pending = append(f.pending[:0], f.pending[n:]...)
	}
	fresh := f.decs[f.reported:]
	slices.SortStableFunc(fresh, func(a, b Decision) int { return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Cluster, b.Cluster)) })
	f.reported = len(f.decs)
	return fresh, nil
}

// deliver hands instant t's releases to the sink, and is the one point
// where the control plane plugs in. Plane on: the releases enter it as
// arrivals and it calls the sink for each job it admits — among them
// deferred ones whose retry falls on t, so the batch may be empty.
// Plane off: the same observation, refresh edge and per-job routing,
// without the queue. With AlwaysAdmit the two are byte-identical
// at any staleness (TestControlPlaneDifferential).
func (f *Federation) deliver(t model.Time, batch []Pending) error {
	if f.plane != nil {
		for _, p := range batch {
			f.plane.Arrive(p.job(), t)
		}
		return f.plane.Advance(t, &f.sink)
	}
	view, refreshed := f.provider.Observe(t)
	if refreshed {
		if err := f.sink.Refreshed(t, view); err != nil {
			return err
		}
	}
	for _, p := range batch {
		if err := f.sink.Route(p.job(), t, view); err != nil {
			return err
		}
	}
	return nil
}

// fedSink is the federation's ctrl.Sink: the only code that asks the
// delegation policy for a target, checks it and feeds a member.
type fedSink struct{ f *Federation }

// target returns the member the policy sends org's jobs from origin to
// on the exchange: a Scorer's largest score, evaluated once per
// exchange, or else the policy's answer to one call.
func (s *fedSink) target(org, origin int, ex *exchange) (int, error) {
	f, r := s.f, &s.f.routing
	if org < 0 || org >= len(f.orgs) || origin < 0 || origin >= len(f.members) {
		// Only a doctored control-plane queue gets here: accepted jobs
		// passed checkJob.
		return 0, fmt.Errorf("fed: job of organization %d from cluster %d is outside the federation", org, origin)
	}
	if r.scorer != nil {
		if ex.scores == nil {
			scores := r.scorer.Scores(ex.Sums, ex.Routed)
			if len(scores) != len(f.members) {
				return 0, fmt.Errorf("fed: policy %q scored %d clusters of %d", f.policy.Name(), len(scores), len(f.members))
			}
			ex.scores = scores
		}
		return bestScore(origin, ex.scores), nil
	}
	var target int
	if r.ledger != nil {
		target = r.ledger.RouteLedger(org, origin, ex.Sums, ex.Routed)
	} else {
		target = r.policy.Route(org, origin, ex.Sums)
	}
	if target < 0 || target >= len(f.members) {
		return 0, fmt.Errorf("fed: policy %q routed organization %d's jobs at cluster %d to unknown cluster %d",
			f.policy.Name(), org, origin, target)
	}
	return target, nil
}

// feed hands job to member target at instant t; the member's local job
// ID, the next position, keeps its federation identity (sequence number
// and origin).
func (s *fedSink) feed(target int, job ctrl.Job, t model.Time) error {
	m := s.f.members[target]
	if _, err := m.eng.Feed([]model.Job{{Org: job.Org, Size: job.Size, Release: t}}); err != nil {
		return fmt.Errorf("fed: feed cluster %d (%s): %w", target, m.name, err)
	}
	m.seqOf = append(m.seqOf, job.Seq)
	m.originOf = append(m.originOf, job.Origin)
	return nil
}

// Refreshed implements ctrl.Sink: a fresh exchange is the migration
// trigger — queued jobs are re-scored on the newly gossiped view before
// any of the instant's releases route on it.
func (s *fedSink) Refreshed(t model.Time, view ctrl.View) error {
	return s.f.redelegate(t, view.Payload.(*exchange))
}

// Route implements ctrl.Sink: one admitted job goes to the member the
// delegation policy picks.
func (s *fedSink) Route(job ctrl.Job, t model.Time, view ctrl.View) error {
	target, err := s.target(job.Org, job.Origin, view.Payload.(*exchange))
	if err != nil {
		return err
	}
	if err := s.feed(target, job, t); err != nil {
		return err
	}
	s.f.ledger.route(job.Origin, target, int64(job.Size))
	return nil
}

// advanceMembers steps every member engine to t — the federation clock
// lands there with them — and folds their fresh starts into the
// federated decision log in configuration order.
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

// redelegate is the migration pass: fired at each exchange refresh, it
// re-scores the jobs the members hold queued under the delegation
// policy — the job's current holder playing the origin role, so the
// policies' origin-preferring tie-breaks make "stay" the default — and
// migrates one when the policy now picks a different (strictly better)
// member: the queued job is withdrawn from its holder's engine, re-fed
// to the new member at the current instant, and re-pointed in the
// ledger. At most budget jobs move per refresh, in deterministic
// (member, local job ID) order; a pass costs the backlog, not history.
//
// The whole pass scores against the one frozen exchange snapshot —
// migrations do not update the view mid-round, exactly as routing a
// same-instant batch doesn't. The budget is what bounds the herd a
// stale view could otherwise stampede.
func (f *Federation) redelegate(t model.Time, ex *exchange) error {
	budget := f.routing.budget
	if budget <= 0 || len(f.members) <= 1 {
		return nil
	}
	// Snapshot the queues before moving anything: a job migrated this
	// round must not be re-scored at its new home within the same round.
	for _, m := range f.members {
		m.queued = m.eng.Queued(m.queued[:0])
	}
	moved := 0
	for c, m := range f.members {
		for _, id := range m.queued {
			if moved >= budget {
				return nil
			}
			job := m.eng.Instance().Jobs[id]
			target, err := f.sink.target(job.Org, c, ex)
			if err != nil {
				return err
			}
			if target == c {
				continue
			}
			if err := m.eng.Withdraw(id); err != nil {
				return fmt.Errorf("fed: withdraw from cluster %d (%s): %w", c, m.name, err)
			}
			moving := ctrl.Job{Seq: m.seqOf[id], Origin: m.originOf[id], Org: job.Org, Size: job.Size}
			m.seqOf[id], m.originOf[id] = -1, -1
			if err := f.sink.feed(target, moving, t); err != nil {
				return err
			}
			f.ledger.migrate(moving.Origin, c, target, int64(job.Size))
			moved++
		}
	}
	return nil
}

// routedWorkCopy snapshots the ledger's routed-work matrix, so the
// exchange stays frozen while routing appends to the live ledger. The
// rows share one backing array.
func (f *Federation) routedWorkCopy() [][]int64 {
	k := len(f.ledger.RoutedWork)
	out := make([][]int64, k)
	flat := make([]int64, 0, k*k)
	for i, row := range f.ledger.RoutedWork {
		flat = append(flat, row...)
		out[i] = flat[len(flat)-len(row) : len(flat) : len(flat)]
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
		sums[i] = Summary{
			Now:         m.eng.Now(),
			Waiting:     m.eng.Waiting(),
			Psi:         res.Psi,
			Phi:         res.Phi,
			Executed:    res.Ptot,
			Utilization: res.Utilization,
		}
		f.fillConfigured(&sums[i], i)
	}
	return sums
}

// fillConfigured sets the columns of member c's summary that are not
// observations: its index, the capacities its configuration gives it,
// and the sum of the ψ vector next to them.
func (f *Federation) fillConfigured(s *Summary, c int) {
	m := f.members[c]
	s.Cluster = c
	s.Capacity = m.eng.Instance().TotalCapacity()
	s.OrgCapacity = m.orgCapacity
	s.Value = 0
	for _, psi := range s.Psi {
		s.Value += psi
	}
}

// orgCapacities is each organization's capacity in inst.
func orgCapacities(inst *model.Instance) []int64 {
	caps := make([]int64, len(inst.Orgs))
	for o := range inst.Orgs {
		caps[o] = inst.Orgs[o].Capacity()
	}
	return caps
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
	l := f.ledger // its counts and placement columns: no member's Result
	var fedTotal int64
	for c, m := range f.members {
		fedTotal += l.Fed[c]
		if got := int64(len(m.eng.Instance().Jobs) - m.eng.Withdrawn()); got != l.Fed[c] {
			return fmt.Errorf("fed: cluster %d holds %d live jobs, ledger says %d fed", c, got, l.Fed[c])
		}
	}
	// A submitted job is pending or released; a released job was fed to
	// a member — or, with admission control in the path, rejected or
	// deferred, which the plane's own per-organization law (admitted +
	// rejected + deferred == released) accounts for.
	released := fedTotal
	if f.plane != nil {
		st := f.plane.Stats()
		if err := st.CheckConserved(); err != nil {
			return fmt.Errorf("fed: %w", err)
		}
		if st.TotalAdmitted() != fedTotal {
			return fmt.Errorf("fed: %d admitted != %d fed", st.TotalAdmitted(), fedTotal)
		}
		released = st.TotalReleased()
	}
	if released+int64(len(f.pending)) != l.Submitted {
		return fmt.Errorf("fed: %d released + %d pending != %d submitted", released, len(f.pending), l.Submitted)
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
			if seq >= l.Submitted {
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
	return nil
}
