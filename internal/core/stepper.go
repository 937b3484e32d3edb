package core

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file defines the incremental driving contract the streaming
// engine (internal/engine) consumes. Every algorithm in this package —
// REF, RAND, NBS, DIRECTCONTR and the policy-backed baselines —
// implements Stepper through the one schedSet loop
// (schedset.go), and the batch entry point Run drains the same stepper,
// so the batch and streaming paths cannot diverge.

// Stepper is an algorithm run held open: events are processed one
// decision instant at a time, jobs can be injected mid-run, and the
// complete deterministic state can be captured for checkpointing.
// Steppers are single-goroutine objects; the caller serializes access.
type Stepper interface {
	// Name labels the algorithm configuration (StepperAlgorithm.Name).
	Name() string
	// Instance returns the live instance, including injected jobs. The
	// stepper owns it; callers append jobs only through Inject.
	Instance() *model.Instance
	// NextEventTime returns the earliest pending event across every
	// schedule the stepper maintains, or sim.MaxTime when none remains.
	NextEventTime() model.Time
	// StepNext processes the single earliest pending event at or before
	// until (advance, recompute contributions, dispatch) and reports
	// whether one existed.
	StepNext(until model.Time) bool
	// FinishAt moves every schedule's clock to exactly t after the
	// caller has drained all events at or before t with StepNext. It is
	// safe to call repeatedly with increasing t; stepping can resume
	// afterwards.
	FinishAt(t model.Time)
	// Inject registers jobs already appended to the instance (by ID)
	// with every schedule the stepper maintains.
	Inject(ids []int) error
	// Withdraw removes a not-yet-started job from the decision
	// schedule's wait queue (or pending releases) and, best-effort,
	// from every hypothetical schedule the stepper maintains: a
	// hypothetical schedule that already started the job keeps it —
	// non-preemptive counterfactual work stands — while queued copies
	// are removed alongside. It fails when the decision schedule no
	// longer holds the job (started, finished, or already withdrawn).
	// The job stays in the instance as a tombstone: IDs are positional.
	Withdraw(id int) error
	// Withdrawn returns the number of jobs withdrawn from the decision
	// schedule.
	Withdrawn() int
	// Queued appends to dst the jobs the decision schedule holds and has
	// not started — released and waiting, or pending — by ascending ID.
	Queued(dst []int) []int
	// Starts returns the decision schedule's starts so far.
	Starts() []sim.Start
	// ResultAt builds the standard result at time t. Callers must have
	// drained events to t and called FinishAt(t) first.
	ResultAt(t model.Time) *Result
	// Capture serializes the stepper's complete deterministic state at
	// a step boundary (between StepNext calls). now is the caller's
	// clock, recorded for the resuming side.
	Capture(now model.Time) (*Checkpoint, error)
}

// StepperAlgorithm is a complete scheduling algorithm: it runs
// incrementally, resumes from a checkpoint, and runs in batch through
// Run. The algorithm value carries the static configuration (sample
// count, sampler, rotation); the Checkpoint carries only dynamic state,
// so restoring requires the same algorithm configuration that captured
// it. Runs are deterministic given (instance, seed) and the calls made.
type StepperAlgorithm interface {
	// Name labels the algorithm configuration.
	Name() string
	// NewStepper starts an incremental run. The stepper takes ownership
	// of inst: online arrivals are appended to it via the engine.
	NewStepper(inst *model.Instance, seed int64) Stepper
	// RestoreStepper rebuilds a stepper from a checkpoint captured by a
	// stepper of the same algorithm configuration.
	RestoreStepper(cp *Checkpoint) (Stepper, error)
}

// CheckpointVersion identifies the serialized checkpoint layout, the
// one RestoreStepper reads: the decision schedule as its queues,
// pending releases, withdrawn list and decision log; every hypothetical
// schedule as a waiting count and a finished-work account per member
// and its running entries — on machines of one speed by (end, job) on
// machines 0, 1, 2, …, and as its coalition, clock and finished-work
// offset where it is its members' release-start schedule
// (sim.ClusterState.AtRelease). A document of any other version is
// refused: a change of layout may keep reading the one before it, and
// the next re-anchor retires that reader with its fixtures (DESIGN.md
// §7.1).
const CheckpointVersion = 7

// Checkpoint is the complete serializable state of a stepper mid-run:
// the instance as fed so far (orgs plus every job, including online
// arrivals), one ClusterState per maintained schedule in a
// stepper-defined deterministic order, the positions of the RNG streams
// that influence decisions, and any stateful policy's saved state.
// The loop's acceleration state (slot keys, the value snapshot) is
// deliberately not serialized: it is rebuilt from the cluster states on
// restore, and the rebuilt state evaluates to the same values —
// checkpoint/restore is byte-identical to an uninterrupted run (see
// TestCheckpointRestoreDeterminism).
type Checkpoint struct {
	Version   int                `json:"version"`
	Algorithm string             `json:"algorithm"`
	Seed      int64              `json:"seed"`
	Now       model.Time         `json:"now"`
	Orgs      []model.Org        `json:"orgs"`
	Jobs      []model.Job        `json:"jobs"`
	Clusters  []sim.ClusterState `json:"clusters"`
	RNG       []uint64           `json:"rng,omitempty"`
	Policy    *sim.PolicyState   `json:"policy,omitempty"`
}

// RebuildInstance reconstructs the live instance from the checkpoint.
// Jobs are stored in feed order, which need not be globally sorted by
// release (an arrival fed at time 10 may be released after one fed at
// time 5), so the model's order-free validation applies, not Validate.
func (cp *Checkpoint) RebuildInstance() (*model.Instance, error) {
	inst := &model.Instance{
		Orgs: append([]model.Org(nil), cp.Orgs...),
		Jobs: append([]model.Job(nil), cp.Jobs...),
	}
	for i := range inst.Orgs {
		inst.Orgs[i].Speeds = append([]int(nil), cp.Orgs[i].Speeds...)
	}
	for i := range inst.Jobs {
		inst.Jobs[i].ID = i // a job list does not carry positions
	}
	if err := inst.ValidateUnordered(); err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	return inst, nil
}

// policyPlug is the degenerate schedSet plug behind FromPolicy
// algorithms (DIRECTCONTR, the fair-share family, ROUNDROBIN, FCFS):
// one grand-coalition schedule whose policy selects by its own state —
// no hypothetical schedules, no target vector, no reported φ.
type policyPlug struct{}

func (policyPlug) retarget(int, model.Time) {}

func (policyPlug) phiAt(model.Time) []float64 { return nil }

// NewStepper implements StepperAlgorithm.
func (a *policyAlgorithm) NewStepper(inst *model.Instance, seed int64) Stepper {
	src := stats.NewSource(seed)
	q := sim.NewQueues(inst)
	c := q.NewCluster(inst.Grand(), a.factory(), rand.New(src))
	s := newSchedSet(a.name, seed, inst, policyPlug{}, q, []*sim.Cluster{c})
	s.src = src
	return s
}

// RestoreStepper implements StepperAlgorithm.
func (a *policyAlgorithm) RestoreStepper(cp *Checkpoint) (Stepper, error) {
	return restoreStepper(a, cp)
}
