package daemon

import (
	"testing"

	"repro/internal/model"
)

// The 0 allocs/step budget (core's TestSteadyStateStepAllocFree) holds
// for the steppers a session actually runs — built by buildAlg from a
// config that sets no option — on release instants with large touched
// sets. Eight organizations of 2 machines each run one long job each
// from t=0, so every schedule keeps a free machine per member; then one
// unit job per instant is released: the release touches the owner's
// 128 REF schedules, or every sampled RAND coalition holding the owner,
// each starts it, and it completes at the next instant, beside the next
// release. So every measured step advances, dispatches and re-keys a
// large touched set; only the decision log grows (amortized).
func TestSessionAlgorithmsStepAllocFree(t *testing.T) {
	const k, late = 8, 104
	orgs := make([]model.Org, k)
	for i := range orgs {
		orgs[i] = model.Org{Name: string(rune('A' + i)), Machines: 2}
	}
	var jobs []model.Job
	for o := 0; o < k; o++ {
		jobs = append(jobs, model.Job{Org: o, Release: 0, Size: 1 << 20})
	}
	for i := 0; i < late; i++ {
		jobs = append(jobs, model.Job{Org: i % k, Release: model.Time(1 + i), Size: 1})
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
