// Package daemon is the multi-session serving layer behind
// cmd/fairschedd: one process holds many concurrent scheduling runs
// open — each session either a single-cluster engine run or a
// federated multi-cluster run — created, inspected, advanced,
// checkpointed and deleted over HTTP/JSON.
//
// Sessions are built from serializable SessionConfigs (algorithm and
// policy names, not live values), so a session's full identity —
// configuration plus engine snapshot — round-trips through a flushed
// checkpoint Envelope: the daemon can stop, persist every live
// session, and resume them all at next boot (see Manager.FlushTo and
// Manager.LoadStore, wired to SIGINT/SIGTERM in cmd/fairschedd).
//
// Locking: the Manager guards the session table with one RWMutex —
// look-ups share it, create and delete hold it only for the map
// update, never while a run is built. Each Session guards its own run.
// Requests against different sessions proceed in parallel, requests
// against one session serialize — the engine and federation types are
// single-goroutine objects by contract.
package daemon

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/engine"
	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Kinds of sessions.
const (
	KindSingle     = "single"
	KindFederation = "federation"
)

// ClusterConfig is the wire form of one federation member cluster.
type ClusterConfig struct {
	Name     string `json:"name"`
	Alg      string `json:"alg"`
	Machines []int  `json:"machines"`
}

// SessionConfig is the serializable static configuration of a session:
// the body of the POST /v1/sessions that creates it, kept in its stored
// envelope, and set by nothing else. Algorithms and policies are
// referenced by name so configurations survive checkpoint files.
type SessionConfig struct {
	Kind string `json:"kind"`

	// Single-run configuration.
	Alg      string `json:"alg,omitempty"`
	Orgs     int    `json:"orgs,omitempty"`
	Machines int    `json:"machines,omitempty"`
	Split    string `json:"split,omitempty"`

	// Federation configuration. Staleness is the summary-gossip
	// staleness Δt (0 = fresh summaries at every release instant).
	OrgNames  []string        `json:"org_names,omitempty"`
	Clusters  []ClusterConfig `json:"clusters,omitempty"`
	Policy    string          `json:"policy,omitempty"`
	Staleness model.Time      `json:"staleness,omitempty"`
	// MigrationBudget overrides a "-migrate" policy's per-refresh
	// re-delegation cap: positive replaces the default, negative
	// disables migration, zero keeps the policy's own
	// (fed.WithMigrationBudget semantics); it is ignored for policies
	// that never migrate.
	MigrationBudget int `json:"migration_budget,omitempty"`

	// Admission, when set, installs an internal/ctrl admission control
	// plane in front of the session: a released job waits for the
	// policy's verdict and only admitted jobs reach the schedule. A gated
	// single run is a one-member federation, whose gossip staleness is
	// Spec.Staleness; a federation observes at its own Staleness.
	Admission *ctrl.PolicySpec `json:"admission,omitempty"`

	// Shared algorithm options.
	Seed        int64  `json:"seed,omitempty"`
	RandSamples int    `json:"rand_samples,omitempty"`
	Stratified  bool   `json:"rand_stratified,omitempty"`
	RefDriver   string `json:"ref_driver,omitempty"` // checked and ignored: bench/ and stored envelopes set it; REF has one loop
	// Workers is ignored: steppers run on the advancing goroutine.
	// Declared only because bench/replay.go reads it and stored
	// envelopes may carry it; goes when bench/ stops naming it.
	Workers int `json:"workers,omitempty"`
}

// Size limits of a session configuration. A create body is outside
// input and a schedule set allocates per organization, per coalition
// and per machine, so each is checked before anything is allocated
// from it. Constants, not options.
const (
	// maxRefOrgs bounds an exact-REF cluster, which keeps 2^orgs
	// coalition schedules (fed.RefPolicy's exact evaluator stops at the
	// same player count).
	maxRefOrgs = 16
	// maxClusterMachines bounds one cluster's machine pool: every
	// schedule keeps per-machine slices.
	maxClusterMachines = 1 << 14
	// maxRandSamples bounds RAND's permutation count: each sample adds
	// up to orgs coalition schedules.
	maxRandSamples = 1 << 10
)

// checkCluster refuses a cluster — a single session's, or one
// federation member's — too large to build, naming the config field.
func checkCluster(alg core.StepperAlgorithm, orgsField string, orgs int, machinesField string, machines int) error {
	if orgs > model.MaxOrgs {
		return fmt.Errorf("daemon: %s: %d organizations exceed the maximum of %d", orgsField, orgs, model.MaxOrgs)
	}
	if _, ref := alg.(core.RefAlgorithm); ref && orgs > maxRefOrgs {
		return fmt.Errorf("daemon: %s: alg ref keeps 2^orgs schedules and takes at most %d organizations, got %d", orgsField, maxRefOrgs, orgs)
	}
	if machines > maxClusterMachines {
		return fmt.Errorf("daemon: %s: %d machines exceed the maximum of %d per cluster", machinesField, machines, maxClusterMachines)
	}
	return nil
}

// buildAlg resolves an algorithm name with the config's shared options
// into a stepper-capable algorithm.
func (c SessionConfig) buildAlg(name string) (core.StepperAlgorithm, error) {
	samples := c.RandSamples
	if samples > maxRandSamples {
		return nil, fmt.Errorf("daemon: rand_samples: %d exceeds the maximum of %d", samples, maxRandSamples)
	}
	if samples <= 0 {
		samples = 15
	}
	if _, err := core.ParseRefDriver(c.RefDriver); err != nil {
		return nil, err
	}
	return core.AlgorithmByName(name, samples, core.RefOptions{}, core.RandOptions{Stratified: c.Stratified})
}

func defaultStr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// singleInstance builds the machine pool of a single-run session
// scheduled by alg.
func (c SessionConfig) singleInstance(alg core.StepperAlgorithm) (*model.Instance, error) {
	orgs := c.Orgs
	if orgs == 0 {
		orgs = 3
	}
	if orgs < 1 {
		return nil, fmt.Errorf("daemon: need at least one organization")
	}
	total := c.Machines
	if total <= 0 {
		total = orgs
	}
	if err := checkCluster(alg, "orgs", orgs, "machines", total); err != nil {
		return nil, err
	}
	splits, err := stats.SplitByName(defaultStr(c.Split, "zipf"), total, orgs)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	orgList := make([]model.Org, orgs)
	for i := range orgList {
		orgList[i] = model.Org{Name: fmt.Sprintf("org%d", i), Machines: splits[i]}
	}
	return model.NewInstance(orgList, nil)
}

// fedSpecs builds the federation member specs from the config.
func (c SessionConfig) fedSpecs() ([]fed.ClusterSpec, error) {
	if len(c.Clusters) == 0 {
		return nil, fmt.Errorf("daemon: federation session needs at least one cluster")
	}
	specs := make([]fed.ClusterSpec, len(c.Clusters))
	for i, cl := range c.Clusters {
		alg, err := c.buildAlg(defaultStr(cl.Alg, "ref"))
		if err != nil {
			return nil, fmt.Errorf("daemon: cluster %d (%s): %w", i, cl.Name, err)
		}
		// Clamped per entry so a hostile row cannot wrap the sum;
		// negative counts are fed.New's to name.
		total := 0
		for _, m := range cl.Machines {
			total += min(max(m, 0), maxClusterMachines+1)
		}
		if err := checkCluster(alg, "org_names", len(c.OrgNames), fmt.Sprintf("clusters[%d].machines", i), total); err != nil {
			return nil, err
		}
		specs[i] = fed.ClusterSpec{
			Name:     defaultStr(cl.Name, fmt.Sprintf("cluster%d", i)),
			Alg:      alg,
			Machines: cl.Machines,
		}
	}
	return specs, nil
}

// fedPolicy resolves the configured delegation policy with the
// migration-budget override applied.
func (c SessionConfig) fedPolicy() (fed.Policy, error) {
	policy, err := fed.PolicyByName(defaultStr(c.Policy, "fairness"))
	if err != nil {
		return nil, err
	}
	return fed.WithMigrationBudget(policy, c.MigrationBudget), nil
}

// errRestoreConfig marks a restore failure caused by the session's own
// stored configuration failing to rebuild — server state gone bad, not
// a problem with the snapshot the client sent. The HTTP layer maps it
// to a 500 where snapshot rejections stay 400s.
var errRestoreConfig = errors.New("daemon: session configuration no longer builds")

// open resolves the configuration into a live run — a fresh one when
// snapshot is nil (create), the snapshot's otherwise (restore) — and is
// the only place a config turns into an algorithm, an instance, member
// specs, a delegation policy, a staleness and an admission spec. The
// config owns the admission spec and the staleness: snapshots carry
// them only so the layers below can rebuild the dynamic state that
// depends on them, and a snapshot taken under a different spec (or
// none, or one where the config has none) or staleness is rejected
// rather than allowed to re-gate or re-pace the session.
//
// A gated single session is a one-member federation: the session's
// organizations and machines as its one cluster, local routing, and the
// admission view's staleness as the gossip staleness.
func (c SessionConfig) open(snapshot []byte) (backend, error) {
	// A configuration that does not build is the request's fault on
	// create and the server's on restore: it built once.
	bad := func(err error) (backend, error) {
		if snapshot != nil {
			err = fmt.Errorf("%w: %w", errRestoreConfig, err)
		}
		return nil, err
	}
	var run backend
	switch c.Kind {
	case KindSingle:
		alg, err := c.buildAlg(defaultStr(c.Alg, "ref"))
		if err != nil {
			return bad(err)
		}
		inst, err := c.singleInstance(alg)
		if err != nil {
			return bad(err)
		}
		if c.Admission != nil {
			orgs := make([]string, len(inst.Orgs))
			machines := make([]int, len(inst.Orgs))
			for o, org := range inst.Orgs {
				orgs[o], machines[o] = org.Name, org.Machines
			}
			specs := []fed.ClusterSpec{{Name: gatedMember, Alg: alg, Machines: machines}}
			f, err := c.openFed(orgs, specs, fed.LocalOnly{}, c.Admission.Staleness, snapshot)
			if err != nil {
				return nil, err
			}
			run = &gatedRun{fedRun{Federation: f}, singleRun{f.Members()[0].Engine()}}
			break
		}
		var eng *engine.Engine
		if snapshot != nil {
			// The config owns the organizations and the machine pool too
			// (fed.Restore holds a federated snapshot to the same rule).
			eng, err = engine.Restore(alg, snapshot)
			if err == nil && !slices.EqualFunc(eng.Instance().Orgs, inst.Orgs, sameOrg) {
				err = fmt.Errorf("daemon: restore: snapshot of organizations %+v, session configured with %+v", eng.Instance().Orgs, inst.Orgs)
			}
		} else {
			eng = engine.New(alg, inst, c.Seed)
		}
		if err != nil {
			return nil, err
		}
		run = singleRun{eng}
	case KindFederation:
		specs, err := c.fedSpecs()
		if err != nil {
			return bad(err)
		}
		policy, err := c.fedPolicy()
		if err != nil {
			return bad(err)
		}
		f, err := c.openFed(c.OrgNames, specs, policy, c.Staleness, snapshot)
		if err != nil {
			return nil, err
		}
		run = &fedRun{Federation: f}
	default:
		return bad(fmt.Errorf("daemon: unknown session kind %q (want %q or %q)", c.Kind, KindSingle, KindFederation))
	}
	if got := run.Admission(); snapshot != nil && !sameSpec(got, c.Admission) {
		return nil, fmt.Errorf("daemon: restore: snapshot taken under admission %+v, session configured with %+v", got, c.Admission)
	}
	return run, nil
}

// gatedMember names the one cluster of a gated single session.
const gatedMember = "cluster0"

// openFed builds the federation of the given members, or restores the
// snapshot's. The config owns the staleness too; SetStaleness reads < 0
// as 0.
func (c SessionConfig) openFed(orgs []string, specs []fed.ClusterSpec, policy fed.Policy, staleness model.Time, snapshot []byte) (*fed.Federation, error) {
	if snapshot == nil {
		f, err := fed.New(orgs, specs, policy, c.Seed)
		if err != nil {
			return nil, err
		}
		f.SetStaleness(staleness)
		return f, f.SetAdmission(c.Admission)
	}
	f, err := fed.Restore(orgs, specs, policy, snapshot)
	if want := max(staleness, 0); err == nil && f.Staleness() != want {
		err = fmt.Errorf("daemon: restore: snapshot taken under staleness %d, session configured with %d", f.Staleness(), want)
	}
	return f, err
}

func sameOrg(a, b model.Org) bool {
	return a.Name == b.Name && a.Machines == b.Machines && slices.Equal(a.Speeds, b.Speeds)
}

// sameSpec reports whether two admission specs are both absent or equal
// field by field.
func sameSpec(a, b *ctrl.PolicySpec) bool {
	return a == b || a != nil && b != nil && *a == *b
}

// Session is one live scheduling run, blind to its kind: building and
// restoring the run is SessionConfig.open's business, the shape of its
// jobs, decisions and state the two backends' (backend.go).
type Session struct {
	id  string
	seq uint64 // creation sequence number in its Manager; List sorts by it
	cfg SessionConfig

	// dirty is set (under mu) by every mutating call and cleared by
	// Manager.FlushTo, so the background flusher only re-serializes
	// sessions that changed since their last flush.
	dirty atomic.Bool

	mu  sync.Mutex
	run backend
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// Config returns the session's static configuration.
func (s *Session) Config() SessionConfig { return s.cfg }

// JobSubmission is one submitted job. Release nil means "now" (the
// session clock); Cluster names the origin cluster of a federated
// submission and is ignored for single runs.
type JobSubmission struct {
	Cluster int         `json:"cluster,omitempty"`
	Org     int         `json:"org"`
	Size    model.Time  `json:"size"`
	Release *model.Time `json:"release,omitempty"`
}

// Decision is the wire form of one scheduling decision. Job is the ID
// the job's submit returned: the engine job ID for ungated single runs,
// the federation sequence number for gated ones and federated runs;
// Cluster identifies the executing cluster (always 0 for single runs).
type Decision struct {
	Job     int64      `json:"job"`
	Org     int        `json:"org"`
	Cluster int        `json:"cluster"`
	Machine int        `json:"machine"`
	At      model.Time `json:"at"`
}

// Submit feeds jobs into the session and returns their IDs (engine job
// IDs for ungated single runs, federation sequence numbers otherwise).
// The batch is all-or-nothing: one
// invalid job rejects it whole and leaves the session untouched.
func (s *Session) Submit(jobs []JobSubmission) ([]int64, error) {
	ids, _, err := s.submit(jobs)
	return ids, err
}

// submit is Submit that also returns the clock a job without a release
// was stamped with, read under the same lock hold: an advance between
// the submit and a second read would report a later one.
func (s *Session) submit(jobs []JobSubmission) ([]int64, model.Time, error) {
	if len(jobs) == 0 {
		return nil, 0, fmt.Errorf("daemon: no jobs submitted")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dirty.Store(true)
	now := s.run.Now()
	ids, err := s.run.submit(now, jobs)
	return ids, now, err
}

// Advance moves the session clock to *until, or to the next pending
// event when until is nil — nowhere, if the run is drained — returning
// the fresh decisions.
func (s *Session) Advance(until *model.Time) (model.Time, []Decision, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dirty.Store(true)
	t := s.run.Now()
	if until != nil {
		t = *until
	} else if next := s.run.NextEventTime(); next != sim.MaxTime {
		t = next
	}
	decs, err := s.run.step(t)
	if err != nil {
		return 0, nil, err
	}
	return s.run.Now(), decs, nil
}

// ClusterState is one member cluster's row in a federated session's
// state reply.
type ClusterState struct {
	Name      string     `json:"name"`
	Now       model.Time `json:"now"`
	Jobs      int        `json:"jobs"`
	Waiting   int        `json:"waiting"`
	Decisions int        `json:"decisions"`
	Psi       []int64    `json:"psi"`
	Value     int64      `json:"value"`
	Executed  int64      `json:"executed"`
}

// StateReply is a session's state. Single runs fill Algorithm/Phi/
// Utilization; federated runs fill Policy/Clusters/Pending/Offloaded,
// with Psi the federation-wide vector and Value the federation-wide
// coalition value.
type StateReply struct {
	ID          string          `json:"id,omitempty"`
	Kind        string          `json:"kind,omitempty"`
	Algorithm   string          `json:"algorithm,omitempty"`
	Policy      string          `json:"policy,omitempty"`
	Now         model.Time      `json:"now"`
	NextEvent   *model.Time     `json:"next_event,omitempty"`
	Jobs        int             `json:"jobs"`
	Pending     int             `json:"pending,omitempty"`
	Decisions   int             `json:"decisions"`
	Psi         []int64         `json:"psi"`
	Phi         []float64       `json:"phi,omitempty"`
	Value       int64           `json:"value"`
	Utilization float64         `json:"utilization,omitempty"`
	Offloaded   int64           `json:"offloaded,omitempty"`
	Migrations  int64           `json:"migrations,omitempty"`
	Clusters    []ClusterState  `json:"clusters,omitempty"`
	Admission   *AdmissionState `json:"admission,omitempty"`
}

// AdmissionState is the admission-control section of a StateReply,
// present only when the session runs an admission control plane. Stats
// carries the per-organization counters, which obey the conservation
// law admitted + rejected + deferred == released at every quiescent
// instant.
type AdmissionState struct {
	Policy string                  `json:"policy"`
	Stats  *metrics.AdmissionStats `json:"stats"`
}

// admissionState builds the StateReply section from a live plane's
// accounting (nil stats means the plane is off).
func admissionState(spec *ctrl.PolicySpec, st *metrics.AdmissionStats) *AdmissionState {
	if st == nil {
		return nil
	}
	name := spec.Policy
	if name == "" {
		name = "always"
	}
	return &AdmissionState{Policy: name, Stats: st.Clone()}
}

// sessionRow is a session's line in the listing: its clock and its job
// and decision counts.
type sessionRow struct {
	ID        string     `json:"id"`
	Kind      string     `json:"kind"`
	Now       model.Time `json:"now"`
	Jobs      int        `json:"jobs"`
	Decisions int        `json:"decisions"`
}

// summary reads the session's row — what a handler that reports only
// the clock or the counts asks for, instead of a whole State evaluation.
func (s *Session) summary() sessionRow {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs, decisions := s.run.counts()
	return sessionRow{ID: s.id, Kind: s.cfg.Kind, Now: s.run.Now(), Jobs: jobs, Decisions: decisions}
}

// State evaluates the session at its current clock.
func (s *Session) State() StateReply {
	s.mu.Lock()
	defer s.mu.Unlock()
	reply := s.run.state()
	reply.ID, reply.Kind, reply.Now = s.id, s.cfg.Kind, s.run.Now()
	reply.Jobs, reply.Decisions = s.run.counts()
	if next := s.run.NextEventTime(); next != sim.MaxTime {
		reply.NextEvent = &next
	}
	reply.Admission = admissionState(s.run.Admission(), s.run.AdmissionStats())
	return reply
}

// Decisions returns the decision log suffix from `since` and the total
// count. since is clamped to [0, len(log)], so out-of-range values from
// library callers return the full (or empty) suffix instead of
// panicking — the HTTP handler's validation is a courtesy, not a
// precondition.
func (s *Session) Decisions(since int) (int, []Decision) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.run.decisions(max(since, 0))
}

// Checkpoint serializes the session's run state (engine snapshot or
// federation snapshot).
func (s *Session) Checkpoint() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.run.Snapshot()
}

// Restore replaces the session's run state with a snapshot captured by
// a session of the same configuration. A snapshot the configuration
// rejects leaves the session on its previous run.
func (s *Session) Restore(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("daemon: restore: empty snapshot")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	run, err := s.cfg.open(data)
	if err != nil {
		return err
	}
	s.dirty.Store(true)
	s.run = run
	return nil
}

// Manager is the session table: create, look up, list, delete, and
// flush/reload every session.
type Manager struct {
	mu       sync.RWMutex
	sessions map[string]*Session
	seq      uint64          // sessions created so far
	nextID   int             // last auto-assigned "s<N>"
	store    CheckpointStore // optional; Delete drops envelopes through it
	limit    int             // live sessions beyond which Create refuses
}

// maxSessions is the number of live sessions beyond which Create
// refuses a new one, so that clients cannot create sessions until the
// process runs out of memory. Sessions restored from a store are not
// counted against it.
const maxSessions = 1 << 16

// NewManager returns an empty session manager.
func NewManager() *Manager {
	return &Manager{sessions: make(map[string]*Session), limit: maxSessions}
}

// SetStore attaches the checkpoint store session deletions propagate
// to, so a deleted session's envelope does not resurrect it at the
// next boot. Flushing still names its store explicitly (FlushTo).
func (m *Manager) SetStore(store CheckpointStore) {
	m.mu.Lock()
	m.store = store
	m.mu.Unlock()
}

// ErrSessionExists marks a Create whose explicit id is already taken —
// a conflict with the session table (409), not a malformed request.
var ErrSessionExists = errors.New("daemon: session already exists")

// errSessionsFull marks a Create refused because the table holds the
// most live sessions it serves (503): a later delete makes room.
var errSessionsFull = errors.New("daemon: session table full")

// Create builds a new session from cfg. id may be empty, in which case
// a fresh "s<N>" identifier is assigned. Identifiers must be usable in
// URL paths — one path segment, no slashes — and as envelope file
// names: a leading dot would make the stored session a hidden or temp
// file, which the next DirStore.Load sweeps instead of restoring.
func (m *Manager) Create(id string, cfg SessionConfig) (*Session, error) {
	return m.create(id, cfg, nil)
}

// create is Create, resuming from a snapshot when one is given.
func (m *Manager) create(id string, cfg SessionConfig, snapshot []byte) (*Session, error) {
	if strings.ContainsAny(id, "/ ") {
		return nil, fmt.Errorf("daemon: session id %q contains a slash or space", id)
	}
	if strings.HasPrefix(id, ".") {
		return nil, fmt.Errorf("daemon: session id %q starts with a dot", id)
	}
	if _, exists := m.Get(id); exists {
		// Cheap pre-check so a duplicate id fails before the session —
		// possibly a whole federation — is built. The insert below
		// re-checks authoritatively.
		return nil, fmt.Errorf("%w: %q", ErrSessionExists, id)
	}
	run, err := cfg.open(snapshot)
	if err != nil {
		return nil, err
	}
	s := &Session{id: id, cfg: cfg, run: run}
	s.dirty.Store(snapshot == nil) // a resumed session's stored state already matches
	m.mu.Lock()
	defer m.mu.Unlock()
	if snapshot == nil && len(m.sessions) >= m.limit {
		return nil, fmt.Errorf("%w: %d sessions", errSessionsFull, len(m.sessions))
	}
	if id == "" {
		// Auto ids skip over names explicit creates already took.
		for taken := true; taken; {
			m.nextID++
			s.id = fmt.Sprintf("s%d", m.nextID)
			_, taken = m.sessions[s.id]
		}
	} else if _, taken := m.sessions[id]; taken {
		return nil, fmt.Errorf("%w: %q", ErrSessionExists, id)
	}
	m.seq++
	s.seq = m.seq
	m.sessions[s.id] = s
	return s, nil
}

// Get returns the session with the given id.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.sessions[id]
	return s, ok
}

// count returns the number of live sessions.
func (m *Manager) count() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.sessions)
}

// List returns the sessions live at the call, in creation order.
func (m *Manager) List() []*Session {
	m.mu.RLock()
	out := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		out = append(out, s)
	}
	m.mu.RUnlock()
	slices.SortFunc(out, func(a, b *Session) int { return cmp.Compare(a.seq, b.seq) })
	return out
}

// Delete removes a session. The run is simply dropped — callers wanting
// its final state checkpoint first. With a store attached, the
// session's envelope is removed too (best-effort: a stale envelope only
// resurrects the session at the next boot, it cannot corrupt it).
func (m *Manager) Delete(id string) bool {
	m.mu.Lock()
	_, ok := m.sessions[id]
	delete(m.sessions, id)
	store := m.store
	m.mu.Unlock()
	if ok && store != nil {
		store.Delete(id)
	}
	return ok
}

// Envelope is one flushed session: its identity, its full static
// configuration, and its run snapshot. Envelopes are what FlushTo
// writes and LoadStore reads — a daemon's complete persistent state is
// a store of them.
type Envelope struct {
	ID       string          `json:"id"`
	Config   SessionConfig   `json:"config"`
	Snapshot json.RawMessage `json:"snapshot"`
}

// FlushTo checkpoints live sessions into the store and returns the
// flushed session ids. With dirtyOnly, sessions unchanged since their
// last flush are skipped — the periodic background flush path. A
// session whose checkpoint or write fails stays dirty and does not
// stop the flush: every remaining session is still attempted and the
// failures come back joined into one error.
func (m *Manager) FlushTo(store CheckpointStore, dirtyOnly bool) ([]string, error) {
	var flushed []string
	var errs []error
	for _, s := range m.List() {
		// Claim the dirty bit before snapshotting: a mutation landing
		// after the claim re-marks the session, so the next pass
		// re-flushes it; a mutation before the snapshot is simply
		// included. Either way no update is lost.
		if dirtyOnly {
			if !s.dirty.CompareAndSwap(true, false) {
				continue
			}
		} else {
			s.dirty.Store(false)
		}
		snap, err := s.Checkpoint()
		if err != nil {
			s.dirty.Store(true)
			errs = append(errs, fmt.Errorf("daemon: flush session %q: %w", s.ID(), err))
			continue
		}
		if err := store.Save(Envelope{ID: s.ID(), Config: s.Config(), Snapshot: snap}); err != nil {
			s.dirty.Store(true)
			errs = append(errs, fmt.Errorf("daemon: flush session %q: %w", s.ID(), err))
			continue
		}
		flushed = append(flushed, s.ID())
	}
	return flushed, errors.Join(errs...)
}

// LoadStore restores every envelope the store yields. Envelopes that
// fail to recreate or restore are quarantined in the store and reported
// alongside the ones the store itself set aside — a poisoned envelope
// costs one session, never the whole boot. Restored sessions start
// clean (not dirty): their disk state already matches.
func (m *Manager) LoadStore(store CheckpointStore) ([]string, []Quarantined, error) {
	envs, quarantined, err := store.Load()
	if err != nil {
		return nil, quarantined, err
	}
	var ids []string
	for _, env := range envs {
		var err error
		if len(env.Snapshot) == 0 { // would open a fresh run, not resume one
			err = fmt.Errorf("envelope carries no snapshot")
		} else {
			_, err = m.create(env.ID, env.Config, env.Snapshot)
		}
		if err != nil {
			err = fmt.Errorf("daemon: restore session %q: %w", env.ID, err)
			if qerr := store.Quarantine(env.ID); qerr != nil {
				err = errors.Join(err, qerr)
			}
			quarantined = append(quarantined, Quarantined{ID: env.ID, Err: err})
			continue
		}
		ids = append(ids, env.ID)
	}
	return ids, quarantined, nil
}
