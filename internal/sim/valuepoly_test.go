package sim

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/utility"
)

// lowOrgPolicy starts the waiting job of the lowest-index organization —
// the minimal deterministic policy (baseline would import sim back).
type lowOrgPolicy struct{ view *View }

func (p *lowOrgPolicy) Name() string                 { return "low-org" }
func (p *lowOrgPolicy) Attach(v *View, _ *rand.Rand) { p.view = v }
func (p *lowOrgPolicy) Select(_ model.Time, _ int) int {
	for u := 0; u < p.view.Orgs(); u++ {
		if p.view.Waiting(u) > 0 {
			return u
		}
	}
	return -1
}

// withSpeeds gives about half of the instance's organizations related
// machines of speed 1 to 3.
func withSpeeds(r *rand.Rand, in *model.Instance) {
	for i := range in.Orgs {
		if o := &in.Orgs[i]; r.Intn(2) == 0 {
			o.Speeds = make([]int, o.Machines)
			for s := range o.Speeds {
				o.Speeds[s] = 1 + r.Intn(3)
			}
		}
	}
}

// oracle is the from-scratch account of a cluster at t: ψsp and executed
// units per job owner, per machine owner and in total, summed over the
// decision log. A job of size p on a speed-q machine is q unit-speed
// lanes of ⌈(p−i)/q⌉ slots each, i < q — one unit per lane and slot, the
// last slot carrying the remainder — so utility.PsiJob and
// utility.ExecutedUnits price it.
type oracle struct {
	orgPsi, ownPsi, usage []int64
	psi, units            int64
}

func oracleAt(c *Cluster, t model.Time) oracle {
	k := len(c.inst.Orgs)
	o := oracle{orgPsi: make([]int64, k), ownPsi: make([]int64, k), usage: make([]int64, k)}
	for _, s := range c.Starts() {
		j, q := c.inst.Jobs[s.Job], model.Time(c.speeds[s.Machine])
		for i := model.Time(0); i < q; i++ {
			lane := (j.Size - i + q - 1) / q
			psi, units := utility.PsiJob(s.At, lane, t), utility.ExecutedUnits(s.At, lane, t)
			o.orgPsi[j.Org] += psi
			o.ownPsi[c.owners[s.Machine]] += psi
			o.usage[j.Org] += units
			o.psi += psi
			o.units += units
		}
	}
	return o
}

// checkAccountsToNextEvent holds every account read to the oracle at
// every instant from the clock up to the cluster's next event (or
// stop), and at the clock itself whatever is due there: ValueAt from the clock, then Psi, OwnerPsi, Usage, Value and
// ExecutedUnits at the instant itself. It leaves the clock at the last
// instant checked.
func checkAccountsToNextEvent(t *testing.T, c *Cluster, stop model.Time) {
	t.Helper()
	from := c.now
	stop = max(from, min(stop, c.NextEventTime()-1))
	for tm := from; tm <= stop; tm++ {
		want := oracleAt(c, tm)
		if got := c.ValueAt(tm); got != want.psi {
			t.Fatalf("ValueAt(%d) read at %d = %d, oracle %d", tm, from, got, want.psi)
		}
		if tm > from {
			c.AdvanceTo(tm) // before the next event: only the clock moves
		}
		v := &c.view
		for org := range want.orgPsi {
			if c.Psi(org) != want.orgPsi[org] || v.OwnerPsi(org) != want.ownPsi[org] || v.Usage(org) != want.usage[org] {
				t.Fatalf("t=%d org %d: ψ %d, owner ψ %d, usage %d; oracle %d, %d, %d",
					tm, org, c.Psi(org), v.OwnerPsi(org), v.Usage(org), want.orgPsi[org], want.ownPsi[org], want.usage[org])
			}
		}
		if c.Value() != want.psi || c.ExecutedUnits() != want.units {
			t.Fatalf("t=%d: value %d, executed %d; oracle %d, %d", tm, c.Value(), c.ExecutedUnits(), want.psi, want.units)
		}
	}
}

// Every account is exact at every instant up to the cluster's next
// event — including on related machines, where a running job's final
// slot carries a sub-speed remainder: the test drives a cluster event by
// event and, between events, holds each per-organization, per-owner and
// total ψsp, usage and executed-unit count to a from-scratch sum over
// the executions at every intermediate time.
func TestAccountsMatchOracleBetweenEvents(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(500 + seed))
		in := randInstance(r, false)
		if seed%2 == 1 {
			withSpeeds(r, in)
		}
		horizon := drainHorizon(in)
		c := New(in, in.Grand(), &lowOrgPolicy{}, nil)
		for {
			checkAccountsToNextEvent(t, c, horizon)
			if !c.Step(horizon) {
				break
			}
		}
	}
}

// The zero ValuePoly is the value function of an untouched cluster.
func TestValuePolyZeroValue(t *testing.T) {
	var p ValuePoly
	for _, tm := range []model.Time{0, 1, 17, 1 << 20} {
		if p.At(tm) != 0 {
			t.Fatalf("zero poly at %d = %d, want 0", tm, p.At(tm))
		}
	}
}
