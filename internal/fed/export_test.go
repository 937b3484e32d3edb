package fed

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/model"
	"repro/internal/sim"
)

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

// SetSlack overrides the reorder buffer size (records held back to
// re-sort local submit-order jitter). Call before the first Next.
func (s *SWFSource) SetSlack(n int) {
	if n < 1 {
		n = 1
	}
	s.slack = n
}

// Skipped returns the number of unusable archive records skipped so far.
func (s *SWFSource) Skipped() int { return s.r.Skipped() }

// CountCaptures makes every exchange capture add one to *captures and
// the members' queued jobs — the most a migration pass on that exchange
// scans — to *queued. Call it before SetAdmission: a plane keeps the
// provider it was built with.
func (f *Federation) CountCaptures(captures, queued *int) {
	f.provider = ctrl.NewCachedSnapshotProvider(func(t model.Time) ctrl.View {
		v := f.captureExchange(t)
		*captures++
		*queued += v.Load.Waiting
		return v
	}, f.provider.MaxAge())
}

// CountMemberWork wraps alg so that a member engine built on it adds
// one to *steps each time the federation steps it (Engine.Step) and one
// to *snapshots per queue a migration pass reads (Engine.Queued).
func CountMemberWork(alg core.StepperAlgorithm, steps, snapshots *int) core.StepperAlgorithm {
	return countingAlg{alg, steps, snapshots}
}

type countingAlg struct {
	core.StepperAlgorithm
	steps, snapshots *int
}

func (a countingAlg) NewStepper(inst *model.Instance, seed int64) core.Stepper {
	return countingStepper{a.StepperAlgorithm.NewStepper(inst, seed), a.steps, a.snapshots}
}

// countingStepper counts FinishAt, which every engine Step calls once.
type countingStepper struct {
	core.Stepper
	steps, snapshots *int
}

func (s countingStepper) FinishAt(t model.Time) {
	*s.steps++
	s.Stepper.FinishAt(t)
}

func (s countingStepper) Queued(dst []int) []int {
	*s.snapshots++
	return s.Stepper.Queued(dst)
}

// CheckQueued holds every member's Engine.Queued to the brute-force set
// a migration pass must scan: the jobs the member was fed that neither
// started nor migrated away, by ascending local ID, as many as Waiting.
func (f *Federation) CheckQueued() error {
	for c, m := range f.members {
		started := make(map[int]bool)
		for _, s := range m.eng.Decisions() {
			started[s.Job] = true
		}
		var want []int
		for id, seq := range m.seqOf {
			if seq >= 0 && !started[id] {
				want = append(want, id)
			}
		}
		if got := m.eng.Queued(nil); !slices.Equal(got, want) || len(got) != m.eng.Waiting() {
			return fmt.Errorf("cluster %d at %d: Queued %v, want %v (Waiting %d)", c, m.eng.Now(), got, want, m.eng.Waiting())
		}
	}
	return nil
}
