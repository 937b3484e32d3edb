// Package model defines the basic vocabulary of the multi-organization
// scheduling problem: discrete time, organizations, sequential jobs,
// coalitions of organizations and problem instances.
//
// The model follows Section 2 of Skowron & Rzadca (SPAA 2013): each
// organization owns a number of identical machines and submits sequential
// jobs that, once started, run to completion (no preemption, no
// migration). Jobs of a single organization must be started in submission
// (FIFO) order. Scheduling is online and non-clairvoyant: a job's size is
// unknown to schedulers until the job completes.
package model

import (
	"errors"
	"fmt"
	"sort"
)

// Time is a discrete time moment or duration, in abstract time units
// (the paper's set T). Negative times are invalid.
type Time int64

// Job is a sequential job. Size is the processing time p; Release is the
// release (submission) time r. ID is the job's index in Instance.Jobs and
// doubles as the global submission sequence: for two jobs of the same
// organization, the one with the smaller ID must start first (and, being
// the position, is left out of a serialized job list).
//
// Schedulers must not read Size before the job completes (the model is
// non-clairvoyant); the simulator enforces this by exposing only queue
// positions, never sizes, to policies.
type Job struct {
	ID      int  `json:"-"`
	Org     int  // index into Instance.Orgs
	Release Time // r >= 0
	Size    Time // p >= 1
}

// Org is a participating organization contributing Machines processors
// to the common pool.
//
// Speeds optionally assigns each machine a speed: the number of work
// units it completes per time unit. Empty means every machine has speed
// 1 — the identical-machines model of the paper's evaluation. Non-empty
// Speeds (length Machines, entries >= 1) enable the related-machines
// extension the paper sketches in Sections 2 and 8: a job of size p on
// a speed-q machine occupies it for ⌈p/q⌉ time units.
type Org struct {
	Name     string
	Machines int
	Speeds   []int
}

// Speed returns the speed of the org's i-th machine (1 when Speeds is
// unset).
func (o Org) Speed(i int) int {
	if len(o.Speeds) == 0 {
		return 1
	}
	return o.Speeds[i]
}

// Capacity returns the total work units per time unit the organization
// contributes.
func (o Org) Capacity() int64 {
	if len(o.Speeds) == 0 {
		return int64(o.Machines)
	}
	var c int64
	for _, s := range o.Speeds {
		c += int64(s)
	}
	return c
}

// Instance is one complete scheduling problem: the organizations with
// their machine counts and every job that will ever be released. Jobs are
// sorted by (Release, ID); per-organization relative order is the FIFO
// submission order.
type Instance struct {
	Orgs []Org
	Jobs []Job
}

// NewInstance builds a normalized instance from organizations and jobs.
// Job IDs are (re)assigned in submission order: jobs are stably sorted by
// release time, preserving the caller's relative order of equal-release
// jobs, and then numbered 0..n-1.
func NewInstance(orgs []Org, jobs []Job) (*Instance, error) {
	in := &Instance{
		Orgs: append([]Org(nil), orgs...),
		Jobs: append([]Job(nil), jobs...),
	}
	sort.SliceStable(in.Jobs, func(i, j int) bool {
		return in.Jobs[i].Release < in.Jobs[j].Release
	})
	for i := range in.Jobs {
		in.Jobs[i].ID = i
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// MustNewInstance is NewInstance that panics on invalid input. Intended
// for tests and hand-built examples.
func MustNewInstance(orgs []Org, jobs []Job) *Instance {
	in, err := NewInstance(orgs, jobs)
	if err != nil {
		panic(err)
	}
	return in
}

// Validate checks structural invariants: everything ValidateUnordered
// checks, and jobs sorted by (Release, ID).
func (in *Instance) Validate() error {
	if err := in.ValidateUnordered(); err != nil {
		return err
	}
	for i := 1; i < len(in.Jobs); i++ {
		if in.Jobs[i-1].Release > in.Jobs[i].Release {
			return fmt.Errorf("model: jobs not sorted by release time at position %d", i)
		}
	}
	return nil
}

// ValidateUnordered checks the invariants that hold for jobs in any
// order — the feed order of a streamed run need not be release order: at
// least one and at most MaxOrgs organizations, at least one machine in
// total, job IDs equal to positions and job fields in range.
func (in *Instance) ValidateUnordered() error {
	const maxMachines = 1 << 20
	if len(in.Orgs) == 0 {
		return errors.New("model: instance has no organizations")
	}
	if len(in.Orgs) > MaxOrgs {
		return fmt.Errorf("model: %d organizations exceed the maximum of %d", len(in.Orgs), MaxOrgs)
	}
	total := 0
	for i, o := range in.Orgs {
		if o.Machines < 0 {
			return fmt.Errorf("model: organization %d (%s) has negative machine count %d", i, o.Name, o.Machines)
		}
		if len(o.Speeds) != 0 {
			if len(o.Speeds) != o.Machines {
				return fmt.Errorf("model: organization %d (%s) has %d speeds for %d machines", i, o.Name, len(o.Speeds), o.Machines)
			}
			for m, s := range o.Speeds {
				if s < 1 {
					return fmt.Errorf("model: organization %d (%s) machine %d has speed %d; speeds must be >= 1", i, o.Name, m, s)
				}
			}
		}
		// Every schedule keeps per-machine slices: a pool this size is a
		// typo or an attack, and one past it overflows the sum.
		if o.Machines > maxMachines-total {
			return fmt.Errorf("model: more than %d machines", maxMachines)
		}
		total += o.Machines
	}
	if total == 0 {
		return errors.New("model: instance has no machines")
	}
	for i, j := range in.Jobs {
		if j.ID != i {
			return fmt.Errorf("model: job at position %d has ID %d; IDs must equal positions", i, j.ID)
		}
		if j.Org < 0 || j.Org >= len(in.Orgs) {
			return fmt.Errorf("model: job %d references unknown organization %d", i, j.Org)
		}
		if j.Release < 0 {
			return fmt.Errorf("model: job %d has negative release time %d", i, j.Release)
		}
		if j.Size < 1 {
			return fmt.Errorf("model: job %d has size %d; sizes must be >= 1", i, j.Size)
		}
	}
	return nil
}

// TotalMachines returns the machine count of the whole system (the grand
// coalition's pool).
func (in *Instance) TotalMachines() int {
	total := 0
	for _, o := range in.Orgs {
		total += o.Machines
	}
	return total
}

// Grand returns the grand coalition of all organizations.
func (in *Instance) Grand() Coalition { return Grand(len(in.Orgs)) }

// TotalWork returns the sum of job sizes (total processing demand).
func (in *Instance) TotalWork() Time {
	var w Time
	for _, j := range in.Jobs {
		w += j.Size
	}
	return w
}

// MaxRelease returns the latest release time, or 0 for an empty job set.
func (in *Instance) MaxRelease() Time {
	var m Time
	for _, j := range in.Jobs {
		if j.Release > m {
			m = j.Release
		}
	}
	return m
}

// Horizon returns a time by which every job has certainly completed in
// any greedy schedule: max release plus total work.
func (in *Instance) Horizon() Time { return in.MaxRelease() + in.TotalWork() }

// TotalCapacity returns the system's work units per time unit (equal to
// TotalMachines in the identical-machines model).
func (in *Instance) TotalCapacity() int64 {
	var c int64
	for _, o := range in.Orgs {
		c += o.Capacity()
	}
	return c
}

// Restrict returns the sub-instance visible to coalition c: only the
// members' organizations keep machines and only their jobs remain. The
// organization indexing is preserved (non-members keep their slots with
// zero machines) so that coalition masks remain comparable across
// sub-instances.
func (in *Instance) Restrict(c Coalition) *Instance {
	out := &Instance{Orgs: append([]Org(nil), in.Orgs...)}
	for i := range out.Orgs {
		if !c.Has(i) {
			out.Orgs[i].Machines = 0
			out.Orgs[i].Speeds = nil
		}
	}
	for _, j := range in.Jobs {
		if c.Has(j.Org) {
			j.ID = len(out.Jobs) // renumber: IDs must equal positions
			out.Jobs = append(out.Jobs, j)
		}
	}
	return out
}
