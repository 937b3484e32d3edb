package sim

import (
	"math/rand"

	"repro/internal/model"
)

// Policy decides, at each scheduling opportunity, which organization's
// head job a free machine should take. Policies see the cluster only
// through a View, which deliberately hides job sizes: the model is
// non-clairvoyant (Section 2 of the paper).
//
// The engine calls Select only when at least one organization has a
// waiting job; the returned organization must have one (the engine
// panics otherwise — it is a programming error, not a runtime
// condition).
type Policy interface {
	Name() string
	// Attach is called once, before any event, handing the policy its
	// read-only view of the cluster and a deterministic random source.
	Attach(view *View, rng *rand.Rand)
	// Select returns the organization whose head job starts now on the
	// given machine.
	Select(t model.Time, machine int) int
}

// MachineOrderer is an optional Policy extension: before the dispatch
// loop consumes the free machines, the policy is handed them in
// ascending ID order — whatever order the cluster keeps them in — and
// may reorder them in place; the loop takes them in the order it
// leaves. DIRECTCONTR uses this to visit processors in random order,
// per Figure 9 of the paper: its shuffle depends on the order it is
// handed.
type MachineOrderer interface {
	OrderMachines(t model.Time, free []int)
}

// StatefulPolicy is an optional Policy extension for policies carrying
// mutable decision state that must survive checkpoint/restore (e.g.
// RoundRobin's rotation cursor). Stateless policies — and policies
// whose state is derived from the cluster or driver at every decision —
// need not implement it.
type StatefulPolicy interface {
	// SavePolicy returns the policy's mutable state.
	SavePolicy() PolicyState
	// RestorePolicy resumes from a saved state, refusing one the
	// attached policy could not have saved.
	RestorePolicy(st PolicyState) error
}

// PolicyState is a stateful policy's part of a checkpoint: RoundRobin's
// rotation cursor, the organization its next turn starts from.
type PolicyState struct {
	Next int `json:"next"`
}

// View is the read-only window a Policy gets onto a Cluster. All queries
// are evaluated at the cluster's current time. A policy reads it while
// its cluster dispatches, which a cluster in free flow never does.
type View struct{ c *Cluster }

// Orgs returns the number of organizations in the instance (including
// coalition non-members, which always show empty queues and no
// machines).
func (v *View) Orgs() int { return len(v.c.inst.Orgs) }

// Coalition returns the coalition this cluster simulates.
func (v *View) Coalition() model.Coalition { return v.c.coal }

// Waiting returns the number of released, not yet started jobs of org.
func (v *View) Waiting(org int) int { return v.c.waiting(org) }

// Head returns the ID and release time of org's next job in FIFO order.
// The job's size is deliberately not exposed (non-clairvoyance).
func (v *View) Head(org int) (id int, release model.Time, ok bool) {
	c := v.c
	if v.Waiting(org) == 0 {
		return 0, 0, false
	}
	id = c.head(org)
	return id, c.inst.Jobs[id].Release, true
}

// Psi returns org's strategy-proof utility ψsp at the current time.
func (v *View) Psi(org int) int64 { return v.c.Psi(org) }

// Usage returns the number of unit slots executed so far by org's jobs —
// the consumed-CPU-time notion of usage that fair-share policies meter.
func (v *View) Usage(org int) int64 { return v.c.orgAcct[org].Units(v.c.now) }

// OwnerPsi returns the ψsp-style value of the unit slots executed on
// org's machines (by anyone's jobs) — DIRECTCONTR's direct contribution
// estimate. A cluster that keeps no decision log keeps no such account:
// asking it is a programming error, and panics.
func (v *View) OwnerPsi(org int) int64 {
	if v.c.ownAcct == nil {
		panic("sim: OwnerPsi on a cluster that keeps no machine-owner accounts (DiscardStarts)")
	}
	return v.c.ownAcct[org].At(v.c.now)
}

// Running returns how many of org's jobs are currently executing.
func (v *View) Running(org int) int { return v.c.runningPerOrg[org] }

// Share returns org's fraction of the coalition's work capacity — the
// target share used by the fair-share family (0 when the pool is
// empty). With identical machines this is the fraction of processors
// contributed, exactly as in Section 7.1; with related machines it is
// speed-weighted.
func (v *View) Share(org int) float64 {
	if v.c.capacity == 0 {
		return 0
	}
	return float64(v.c.capacityPerOrg[org]) / float64(v.c.capacity)
}
