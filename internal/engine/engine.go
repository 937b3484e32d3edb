// Package engine drives any core scheduling algorithm incrementally:
// jobs are fed as they arrive (Feed), the simulation advances to
// explicit instants (Step), and the complete deterministic state can be
// serialized and resumed byte-identically (Snapshot/Restore).
//
// The batch contract — core.Algorithm.Run(inst, horizon, seed) — is a
// degenerate use of this engine: construct it with the full job list
// and Step once to the horizon. The engine exists for everything the
// batch contract cannot express: online arrivals unknown at start,
// open-ended runs with no fixed horizon, long-running serving processes
// that checkpoint themselves (cmd/fairschedd), and traces too large to
// hold in memory (internal/trace.Reader feeds jobs in O(1) space).
//
// Determinism: an engine run is a pure function of (algorithm
// configuration, seed, the sequence of Feed and Step calls). Feeding a
// job before its release time produces exactly the batch schedule that
// would have contained the job from the start — TestStreamingMatchesBatch
// asserts byte-identical schedules, ψ and φ for every algorithm.
package engine

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/model"
	"repro/internal/sim"
)

// Engine holds one algorithm run open. Engines are single-goroutine
// objects: callers (daemon sessions, the examples) serialize access.
// Distinct engines share no mutable state, so they may be driven from
// different goroutines concurrently.
type Engine struct {
	s        core.Stepper
	seed     int64
	now      model.Time
	reported int   // starts already handed out by Step
	feedIDs  []int // scratch for Feed's returned IDs, reused per call
}

// New starts an incremental run of alg on inst. The engine takes
// ownership of the instance — jobs arriving later are appended to it by
// Feed. inst may start with an empty job list (the pure serving case).
func New(alg core.StepperAlgorithm, inst *model.Instance, seed int64) *Engine {
	return &Engine{s: alg.NewStepper(inst, seed), seed: seed}
}

// Now returns the engine clock: the instant of the last Step.
func (e *Engine) Now() model.Time { return e.now }

// Seed returns the run's seed.
func (e *Engine) Seed() int64 { return e.seed }

// Instance returns the live instance, including every fed job.
func (e *Engine) Instance() *model.Instance { return e.s.Instance() }

// NextEventTime returns the earliest pending event across every
// schedule the algorithm maintains, or sim.MaxTime when none remains
// (the run is drained until more jobs are fed).
func (e *Engine) NextEventTime() model.Time { return e.s.NextEventTime() }

// SetAdmission accepts only a nil spec: an engine runs ungated, and a
// gated single-cluster run is a one-member fed.Federation, whose control
// plane delivers each release before the member dispatches its instant.
// Declared only because bench/replay.go configures its engines through
// it; goes when bench/ stops naming it.
func (e *Engine) SetAdmission(spec *ctrl.PolicySpec) error {
	if spec != nil {
		return errors.New("engine: admission control is a federation's; run a gated single cluster as a one-member fed.Federation")
	}
	return nil
}

// Feed injects newly arrived jobs into the running simulation. Job IDs
// are assigned by the engine (callers leave Job.ID zero); each job must
// name a valid organization, have size ≥ 1, and be released no earlier
// than the engine clock — the scheduler is non-clairvoyant, but it
// cannot be fed its own past. The assigned IDs are returned in order;
// the slice is a scratch buffer owned by the engine, valid until the
// next Feed (callers that keep IDs copy them — the serving tier
// converts to its wire format immediately).
func (e *Engine) Feed(jobs []model.Job) ([]int, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	inst := e.s.Instance()
	for _, j := range jobs {
		if j.Org < 0 || j.Org >= len(inst.Orgs) {
			return nil, fmt.Errorf("engine: feed: unknown organization %d", j.Org)
		}
		if j.Size < 1 {
			return nil, fmt.Errorf("engine: feed: job size %d; sizes must be >= 1", j.Size)
		}
		if j.Release < e.now {
			return nil, fmt.Errorf("engine: feed: release %d before engine time %d", j.Release, e.now)
		}
	}
	e.feedIDs = e.feedIDs[:0]
	for _, j := range jobs {
		j.ID = len(inst.Jobs)
		e.feedIDs = append(e.feedIDs, j.ID)
		inst.Jobs = append(inst.Jobs, j)
	}
	return e.feedIDs, e.s.Inject(e.feedIDs)
}

// Withdraw removes a fed-but-not-yet-started job from the run: the job
// leaves the decision schedule's wait queue (or pending releases) and
// will never start here, but stays in the instance as a tombstone —
// job IDs are positional and already-handed-out IDs must keep meaning.
// It fails when the job already started (scheduling is non-preemptive),
// finished, or was already withdrawn. Withdrawal is part of the
// deterministic state: snapshots taken after a withdraw restore
// byte-identically, and internal/fed uses it to migrate queued jobs
// between federation members.
func (e *Engine) Withdraw(id int) error {
	if id < 0 || id >= len(e.s.Instance().Jobs) {
		return fmt.Errorf("engine: withdraw: job %d not in instance", id)
	}
	return e.s.Withdraw(id)
}

// Withdrawn returns the number of withdrawn jobs.
func (e *Engine) Withdrawn() int { return e.s.Withdrawn() }

// Step advances the run to exactly `until`: every release, completion
// and dispatch at or before that instant is processed, and every
// schedule's clock lands on it. It returns the scheduling decisions
// made since the previous Step (or since Restore). Stepping to the
// current instant is a no-op that reports freshly fed same-instant
// releases, if any were dispatched.
//
// The returned slice aliases the run's decision log: entries are
// written once and never mutated, so the contents stay valid
// indefinitely, but callers must treat the slice as read-only and must
// not append to it (appends would race future log growth). Copy it to
// take ownership.
func (e *Engine) Step(until model.Time) ([]sim.Start, error) {
	if until < e.now {
		return nil, fmt.Errorf("engine: step to %d before engine time %d", until, e.now)
	}
	for e.s.StepNext(until) {
	}
	e.s.FinishAt(until)
	e.now = until
	all := e.s.Starts()
	fresh := all[e.reported:]
	e.reported = len(all)
	return fresh, nil
}

// StepToNextEvent advances to the next pending event instant, if one
// exists, and returns its decisions. The second result reports whether
// an event existed.
func (e *Engine) StepToNextEvent() ([]sim.Start, bool, error) {
	t := e.NextEventTime()
	if t == sim.MaxTime {
		return nil, false, nil
	}
	starts, err := e.Step(t)
	return starts, true, err
}

// Decisions returns the full decision schedule so far.
func (e *Engine) Decisions() []sim.Start { return e.s.Starts() }

// Waiting returns the number of fed jobs not yet started — the queue
// backlog load signal peers see (under the feed-at-release discipline
// of internal/fed every fed job is already released, so this is exactly
// the waiting-queue length). Withdrawn jobs will never start and do not
// count.
func (e *Engine) Waiting() int {
	return len(e.s.Instance().Jobs) - len(e.s.Starts()) - e.s.Withdrawn()
}

// Queued appends to dst the fed jobs that have neither started nor been
// withdrawn, by ascending ID: the jobs Waiting counts, released or not.
// It reads the decision schedule's queues, so its cost follows the
// backlog, not the number of jobs ever fed.
func (e *Engine) Queued(dst []int) []int { return e.s.Queued(dst) }

// Result evaluates utilities, contributions and the schedule at the
// current engine clock.
func (e *Engine) Result() *core.Result { return e.s.ResultAt(e.now) }

// Capture returns the run's complete deterministic state, which
// Snapshot serializes and Resume resumes.
func (e *Engine) Capture() (*core.Checkpoint, error) { return e.s.Capture(e.now) }

// Snapshot serializes the run's complete deterministic state as JSON.
// Restoring it — in this process or another — resumes the run
// byte-identically: same future decisions, same ψ and φ.
func (e *Engine) Snapshot() ([]byte, error) {
	cp, err := e.Capture()
	if err != nil {
		return nil, err
	}
	return json.Marshal(cp)
}

// Restore rebuilds the engine that wrote a Snapshot (Resume).
func Restore(alg core.StepperAlgorithm, data []byte) (*Engine, error) {
	var cp core.Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	return Resume(alg, &cp)
}

// Resume rebuilds the engine that captured cp, which it takes over. The
// algorithm configuration must match the capturing one (checkpoints
// carry only dynamic state). It refuses a document with no version, as
// the envelope a gated engine once wrapped around its checkpoint is:
// that run restores as a one-member federation.
func Resume(alg core.StepperAlgorithm, cp *core.Checkpoint) (*Engine, error) {
	switch {
	case cp == nil || cp.Version == 0:
		return nil, errors.New("engine: restore: no checkpoint version: not an engine checkpoint (a gated run's admission gate envelope restores as a one-member federation)")
	case cp.Version < 1 || cp.Version > core.CheckpointVersion:
		return nil, fmt.Errorf("engine: restore: checkpoint version %d, want 1 to %d", cp.Version, core.CheckpointVersion)
	case cp.Algorithm != alg.Name():
		return nil, fmt.Errorf("engine: restore: checkpoint for %q, engine configured as %q", cp.Algorithm, alg.Name())
	}
	s, err := alg.RestoreStepper(cp)
	if err != nil {
		return nil, err
	}
	e := &Engine{s: s, seed: cp.Seed, now: cp.Now, reported: len(s.Starts())}
	// A job fed at the clock waits at it until the next Step; an event due
	// earlier is one a Step to the clock would have processed, and
	// stepping to it now would move the run backwards.
	if t := e.NextEventTime(); t < e.now {
		return nil, fmt.Errorf("engine: restore: an event is due at instant %d, before the checkpoint's clock %d", t, e.now)
	}
	return e, nil
}
