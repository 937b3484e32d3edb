// Strategyproof: why the paper rejects flow time as a utility and
// derives ψsp instead (Section 4). An organization that splits one long
// job into many short ones improves its *flow time* standing — classic
// schedulers reward the manipulation — but its ψsp utility is provably
// unchanged, so a Shapley-fair scheduler driven by ψsp gives the
// manipulator nothing.
//
// The second half is the manipulation-resistance battery for the
// admission control plane (internal/ctrl): the same split-your-jobs
// misreport is replayed against a REF-scheduled cluster behind three
// admission gates. Under AlwaysAdmit the ψsp gain is zero (the
// utility's own axiom); under a per-job token bucket the manipulation
// backfires (each fragment spends a token, so most fragments are
// rejected); under a size-cost bucket admission charges work, not job
// count, so the gate itself is repackaging-neutral too.
//
// Run with:
//
//	go run ./examples/strategyproof
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/fed"
	"repro/internal/model"
	"repro/internal/utility"
)

func main() {
	const t = 40 // evaluation time
	// The honest workload: one job of size 12 started at 4, plus some
	// context jobs.
	honest := []utility.Execution{
		{Start: 0, Size: 5},
		{Start: 4, Size: 12}, // the job under manipulation
		{Start: 9, Size: 3},
	}
	// The manipulated workload: the size-12 job presented as 12
	// back-to-back unit pieces.
	manipulated := []utility.Execution{
		{Start: 0, Size: 5},
		{Start: 9, Size: 3},
	}
	for i := model.Time(0); i < 12; i++ {
		manipulated = append(manipulated, utility.Execution{Start: 4 + i, Size: 1})
	}

	fmt.Println("=== Splitting a size-12 job into 12 unit pieces ===")
	fmt.Printf("ψsp honest      : %d\n", utility.Psi(honest, t))
	fmt.Printf("ψsp manipulated : %d   (identical — strategy-resistance axiom)\n\n",
		utility.Psi(manipulated, t))

	// Flow time tells a different story: the same computation now counts
	// as 14 jobs instead of 3, so both the total and the per-job average
	// flow move — the metric is manipulable by repackaging work.
	honestPlaced := []utility.Placed{
		{Release: 0, Start: 0, Size: 5},
		{Release: 4, Start: 4, Size: 12},
		{Release: 9, Start: 9, Size: 3},
	}
	manipulatedPlaced := []utility.Placed{
		{Release: 0, Start: 0, Size: 5},
		{Release: 9, Start: 9, Size: 3},
	}
	for i := model.Time(0); i < 12; i++ {
		manipulatedPlaced = append(manipulatedPlaced,
			utility.Placed{Release: 4, Start: 4 + i, Size: 1})
	}
	fh, fm := utility.TotalFlow(honestPlaced, t), utility.TotalFlow(manipulatedPlaced, t)
	fmt.Printf("total flow honest      : %d over %d jobs (avg %.2f)\n",
		fh, len(honestPlaced), float64(fh)/float64(len(honestPlaced)))
	fmt.Printf("total flow manipulated : %d over %d jobs (avg %.2f)\n",
		fm, len(manipulatedPlaced), float64(fm)/float64(len(manipulatedPlaced)))
	fmt.Println("flow time moves when work is repackaged — any fairness scheme")
	fmt.Println("built on it can be gamed; ψsp cannot (Proposition 4.2 relates the")
	fmt.Println("two only for jobs of equal size).")
	fmt.Println()

	// Delaying jobs is never profitable under ψsp either.
	fmt.Println("=== Delaying a job ===")
	for _, d := range []model.Time{0, 1, 5} {
		v := utility.PsiJob(4+d, 12, t)
		fmt.Printf("ψsp of the size-12 job started at %2d: %d\n", 4+d, v)
	}
	fmt.Println("\nψsp is the unique utility (up to affine constants) satisfying the")
	fmt.Println("paper's three axioms (Theorem 4.1): task anonymity in start times,")
	fmt.Println("task anonymity in counts, and strategy-resistance.")
	fmt.Println()
	admissionBattery()
}

// workload builds org 0's submission stream: count size-`size` jobs
// every `gap` ticks, either as single jobs (honest) or split into unit
// fragments (the misreport).
func workload(count int, size, gap model.Time, split bool) []model.Job {
	var jobs []model.Job
	for i := 0; i < count; i++ {
		release := model.Time(i) * gap
		if !split {
			jobs = append(jobs, model.Job{Org: 0, Size: size, Release: release})
			continue
		}
		for p := model.Time(0); p < size; p++ {
			jobs = append(jobs, model.Job{Org: 0, Size: 1, Release: release})
		}
	}
	return jobs
}

// runGated schedules org 0's stream alongside a fixed honest bystander
// (org 1) on a REF-fair two-machine cluster behind the given admission
// gate — a one-member federation, whose control plane admits each
// release before the cluster dispatches its instant — returning org 0's
// ψsp at the horizon and its admitted/released counts.
func runGated(spec *ctrl.PolicySpec, org0 []model.Job) (psi int64, admitted, released int64) {
	const horizon = 200
	cluster := []fed.ClusterSpec{{Name: "cluster", Alg: core.RefAlgorithm{}, Machines: []int{1, 1}}}
	f, err := fed.New([]string{"manipulator", "bystander"}, cluster, fed.LocalOnly{}, 1)
	if err != nil {
		log.Fatal(err)
	}
	f.SetStaleness(spec.Staleness)
	if err := f.SetAdmission(spec); err != nil {
		log.Fatal(err)
	}
	jobs := append([]model.Job(nil), org0...)
	for i := 0; i < 6; i++ {
		jobs = append(jobs, model.Job{Org: 1, Size: 8, Release: model.Time(i) * 10})
	}
	for _, j := range jobs {
		if _, err := f.Submit(0, j.Org, j.Size, j.Release); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := f.Step(horizon); err != nil {
		log.Fatal(err)
	}
	st := f.AdmissionStats()
	return f.Members()[0].Engine().Result().Psi[0], st.Admitted[0], st.Released[0]
}

// admissionBattery replays the split-your-jobs misreport against three
// admission gates and reports the manipulator's ψsp gain under each.
func admissionBattery() {
	fmt.Println("=== Misreporting against the admission control plane ===")
	fmt.Println("org 0 owes 6 size-8 jobs (one per 10 ticks); the misreport splits")
	fmt.Println("each into 8 unit fragments. REF schedules, the gate admits.")
	fmt.Println()
	honest := workload(6, 8, 10, false)
	split := workload(6, 8, 10, true)
	gates := []struct {
		name string
		spec *ctrl.PolicySpec
	}{
		{"always-admit", &ctrl.PolicySpec{Policy: "always"}},
		// One admission token per 10 ticks, small burst: priced per job.
		{"tokenbucket/job", &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 1, Period: 10, Burst: 2, MaxAttempts: 2}},
		// One work-unit per tick, burst one full job: priced per unit of
		// work, so splitting changes nothing.
		{"tokenbucket/work", &ctrl.PolicySpec{Policy: "tokenbucket", Rate: 1, Period: 1, Burst: 8, SizeCost: true, MaxAttempts: 2}},
	}
	fmt.Printf("%-18s %12s %12s %8s %16s\n", "gate", "ψsp honest", "ψsp split", "gain", "split admitted")
	for _, g := range gates {
		ph, _, _ := runGated(g.spec, honest)
		ps, adm, rel := runGated(g.spec, split)
		fmt.Printf("%-18s %12d %12d %8d %10d/%d\n", g.name, ph, ps, ps-ph, adm, rel)
	}
	fmt.Println()
	fmt.Println("Under always-admit the gain is negligible — a few units of")
	fmt.Println("fragment-boundary rounding in the schedule, not a reward: ψsp")
	fmt.Println("itself gives repackaging nothing. The per-job bucket makes the")
	fmt.Println("misreport *costly* — fragments burn tokens and most are rejected,")
	fmt.Println("so the manipulator loses work. The size-cost bucket restores")
	fmt.Println("neutrality at the gate: admission, like the utility, charges for")
	fmt.Println("work rather than for job count.")
}
