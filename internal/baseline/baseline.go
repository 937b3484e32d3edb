// Package baseline implements the scheduling policies the paper compares
// its Shapley-based algorithms against (Section 7.1): ROUNDROBIN,
// FAIRSHARE, UTFAIRSHARE and CURRFAIRSHARE — plus FCFS, the "arbitrary
// greedy algorithm" Algorithm RAND uses for its sampled coalition
// schedules, and a fixed Priority policy used by examples and tests.
//
// All policies are non-clairvoyant: they read only queue state, realized
// usage and utilities through sim.View.
package baseline

import (
	"fmt"
	"math/rand"

	"repro/internal/model"
	"repro/internal/sim"
)

// FCFS starts jobs globally in (release, submission) order: the org
// whose head job was released earliest goes first. For unit-size jobs
// any greedy order yields the same coalition value (Proposition 5.4),
// which is why RAND can use FCFS for its sampled subcoalitions.
type FCFS struct{ view *sim.View }

// NewFCFS returns a first-come-first-served policy.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements sim.Policy.
func (p *FCFS) Name() string { return "FCFS" }

// Attach implements sim.Policy.
func (p *FCFS) Attach(v *sim.View, _ *rand.Rand) { p.view = v }

// Select implements sim.Policy.
func (p *FCFS) Select(_ model.Time, _ int) int {
	best := -1
	bestID := 0
	var bestRel model.Time
	for org := 0; org < p.view.Orgs(); org++ {
		id, rel, ok := p.view.Head(org)
		if !ok {
			continue
		}
		if best == -1 || rel < bestRel || (rel == bestRel && id < bestID) {
			best, bestRel, bestID = org, rel, id
		}
	}
	return best
}

// RoundRobin cycles through the organizations, giving the next waiting
// organization one job start per turn. It optimizes nothing — the paper
// uses it as the fairness floor.
type RoundRobin struct {
	view *sim.View
	next int
}

// NewRoundRobin returns a round-robin policy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements sim.Policy.
func (p *RoundRobin) Name() string { return "RoundRobin" }

// Attach implements sim.Policy.
func (p *RoundRobin) Attach(v *sim.View, _ *rand.Rand) { p.view = v }

// Select implements sim.Policy.
func (p *RoundRobin) Select(_ model.Time, _ int) int {
	k := p.view.Orgs()
	for i := 0; i < k; i++ {
		org := (p.next + i) % k
		if p.view.Waiting(org) > 0 {
			p.next = (org + 1) % k
			return org
		}
	}
	return -1 // unreachable: the engine calls Select only with waiting jobs
}

// SavePolicy implements sim.StatefulPolicy: the rotation cursor is the
// only state a resumed run needs.
func (p *RoundRobin) SavePolicy() sim.PolicyState { return sim.PolicyState{Next: p.next} }

// RestorePolicy implements sim.StatefulPolicy. The cursor names an
// organization: any other would index outside the rotation at the next
// Select.
func (p *RoundRobin) RestorePolicy(st sim.PolicyState) error {
	if k := p.view.Orgs(); st.Next < 0 || st.Next >= k {
		return fmt.Errorf("baseline: round-robin cursor %d outside the %d organizations", st.Next, k)
	}
	p.next = st.Next
	return nil
}

// Priority always prefers the earliest organization in its fixed order
// that has a waiting job.
type Priority struct {
	Order []int
	view  *sim.View
}

// NewPriority returns a fixed-priority policy over the given org order.
func NewPriority(order ...int) *Priority { return &Priority{Order: order} }

// Name implements sim.Policy.
func (p *Priority) Name() string { return "Priority" }

// Attach implements sim.Policy.
func (p *Priority) Attach(v *sim.View, _ *rand.Rand) { p.view = v }

// Select implements sim.Policy.
func (p *Priority) Select(_ model.Time, _ int) int {
	for _, org := range p.Order {
		if p.view.Waiting(org) > 0 {
			return org
		}
	}
	return -1
}
