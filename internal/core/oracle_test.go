package core

import (
	"repro/internal/model"
	"repro/internal/sim"
)

// oracle is the reference stepping of a schedule set: the FairAlgorithm
// loop of Figures 1, 3 and 6 with nothing skipped, the executable spec
// the touched-set loop (schedSet.StepNext) is held to. It steps to every
// release and every completion of every slot, advances every slot there,
// and lets every slot with a free machine and a job waiting refresh its
// targets and ask its policy for every start. It keeps no keys, no
// release-start ledger and no free flow, and folds nothing. It replaces
// the set's NextEventTime, StepNext and FinishAt; Inject, Withdraw,
// Capture, ResultAt and the values the plug reads are the set's own.
type oracle struct{ *schedSet }

// newOracle takes over the stepping of s, a set just built or restored:
// its slots leave free flow and its queues drop the release-start
// ledger. From then on only the oracle may step s.
func newOracle(s *schedSet) oracle {
	materialize(s)
	s.ledger = s.q.KeepReleaseStarts(false)
	return oracle{s}
}

// materialize takes every slot of s out of free flow, so each reads its
// own accounts.
func materialize(s *schedSet) {
	for i, c := range s.slots {
		if hasBit(s.flow, i) {
			c.Materialize()
		}
	}
	clear(s.flow)
}

// oracleOf builds alg's stepper on in and hands it to an oracle.
func oracleOf(alg StepperAlgorithm, in *model.Instance, seed int64) oracle {
	return newOracle(setOf(alg.NewStepper(in, seed)))
}

// instant is the next release or the earliest completion any slot
// answers.
func (o oracle) instant() model.Time {
	t := o.q.NextRelease()
	for _, c := range o.slots {
		t = min(t, c.NextCompletion())
	}
	return t
}

// NextEventTime implements Stepper.
func (o oracle) NextEventTime() model.Time {
	t := o.q.NextRelease()
	for _, c := range o.slots {
		t = min(t, c.NextCompletionAfter(o.now))
	}
	return t
}

// StepNext implements Stepper.
func (o oracle) StepNext(until model.Time) bool {
	t := o.instant()
	if t == sim.MaxTime || t > until {
		o.now = max(o.now, until)
		return false
	}
	o.now = t
	o.q.AdvanceTo(t)
	for i, c := range o.slots {
		c.AdvanceTo(t)
		if jobs, _ := c.Waiting(); jobs > 0 && c.FreeMachines() > 0 {
			o.plug.retarget(i, t)
			c.DispatchCount(jobs)
		}
	}
	return true
}

// FinishAt implements Stepper.
func (o oracle) FinishAt(t model.Time) {
	o.now = t
	o.q.AdvanceTo(t)
	for _, c := range o.slots {
		c.AdvanceTo(t)
	}
}
