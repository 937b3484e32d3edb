package daemon

import (
	"testing"

	"repro/internal/model"
)

// The 0 allocs/step budget (core's TestSteadyStateStepAllocFree) holds
// for the steppers a session actually runs — built by buildAlg from a
// config that sets no option — on touched sets large enough that a
// per-instant fan-out would have engaged. Eight organizations keep every
// machine busy from t=0 (40 long jobs each on 2 machines), then one job
// per instant is released and queues: the release touches the owner's
// 128 REF schedules, or every sampled RAND coalition holding the owner,
// and each is advanced, probed, re-snapshot and re-keyed. Nothing starts,
// and the 13 late releases per organization fit the capacity the 40
// early ones left in every wait queue, so a step that allocates at all
// allocates in the loop itself.
func TestSessionAlgorithmsStepAllocFree(t *testing.T) {
	const k, early, late = 8, 40, 104
	orgs := make([]model.Org, k)
	for i := range orgs {
		orgs[i] = model.Org{Name: string(rune('A' + i)), Machines: 2}
	}
	var jobs []model.Job
	for o := 0; o < k; o++ {
		for j := 0; j < early; j++ {
			jobs = append(jobs, model.Job{Org: o, Release: 0, Size: 1 << 20})
		}
	}
	for i := 0; i < late; i++ {
		jobs = append(jobs, model.Job{Org: i % k, Release: model.Time(1 + i), Size: 5})
	}
	for _, name := range []string{"ref", "rand"} {
		t.Run(name, func(t *testing.T) {
			alg, err := SessionConfig{}.buildAlg(name)
			if err != nil {
				t.Fatal(err)
			}
			in, err := model.NewInstance(orgs, append([]model.Job(nil), jobs...))
			if err != nil {
				t.Fatal(err)
			}
			s := alg.NewStepper(in, 1)
			for s.StepNext(0) {
			}
			if avg := testing.AllocsPerRun(100, func() { s.StepNext(late) }); avg != 0 {
				t.Errorf("a release-instant StepNext allocates %.2f times per run, budget is 0", avg)
			}
			if now := s.NextEventTime(); now > late {
				t.Fatalf("releases drained during measurement (next event at %d)", now)
			}
		})
	}
}
