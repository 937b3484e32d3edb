package exp

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/utility"
	"repro/internal/vis"
)

// Figure2Result carries the worked utility example of the paper's
// Figure 2: the exact schedule, its ψsp values at t=13 and t=14, the
// flow time, and a rendered Gantt chart.
type Figure2Result struct {
	Instance *model.Instance
	Starts   []sim.Start
	Psi13    int64
	Psi14    int64
	Flow14   int64
	Gantt    string
	Legend   string
}

// Figure2 reconstructs the Figure 2 schedule (the unique layout
// consistent with every number in the caption) and evaluates it.
func Figure2() Figure2Result {
	in := model.MustNewInstance(
		[]model.Org{{Name: "O1", Machines: 2}, {Name: "O2", Machines: 1}},
		[]model.Job{
			{Org: 0, Release: 0, Size: 3}, // J1
			{Org: 0, Release: 0, Size: 4}, // J2
			{Org: 0, Release: 0, Size: 3}, // J3
			{Org: 0, Release: 0, Size: 6}, // J4
			{Org: 0, Release: 0, Size: 3}, // J5
			{Org: 0, Release: 0, Size: 6}, // J6
			{Org: 0, Release: 0, Size: 3}, // J7
			{Org: 0, Release: 0, Size: 3}, // J8
			{Org: 0, Release: 0, Size: 4}, // J9
			{Org: 1, Release: 0, Size: 5}, // J^(2)_1
		},
	)
	starts := []sim.Start{
		{Job: 0, Org: 0, Machine: 0, At: 0},
		{Job: 1, Org: 0, Machine: 1, At: 0},
		{Job: 2, Org: 0, Machine: 2, At: 0},
		{Job: 3, Org: 0, Machine: 0, At: 3},
		{Job: 4, Org: 0, Machine: 2, At: 3},
		{Job: 5, Org: 0, Machine: 1, At: 4},
		{Job: 7, Org: 0, Machine: 2, At: 6},
		{Job: 9, Org: 1, Machine: 0, At: 9},
		{Job: 6, Org: 0, Machine: 2, At: 9},
		{Job: 8, Org: 0, Machine: 1, At: 10},
	}
	var execs []utility.Execution
	var placed []utility.Placed
	for _, s := range starts {
		if s.Org != 0 {
			continue
		}
		j := in.Jobs[s.Job]
		execs = append(execs, utility.Execution{Start: s.At, Size: j.Size})
		placed = append(placed, utility.Placed{Release: j.Release, Start: s.At, Size: j.Size})
	}
	return Figure2Result{
		Instance: in,
		Starts:   starts,
		Psi13:    utility.Psi(execs, 13),
		Psi14:    utility.Psi(execs, 14),
		Flow14:   utility.TotalFlow(placed, 14),
		Gantt:    vis.Gantt(in, starts, 3, 14, 80),
		Legend:   vis.Legend(in, starts),
	}
}

// Figure7Result carries the greedy-utilization gap example: the same
// instance scheduled O2-first (perfect packing) and O1-first (the tight
// 3/4 witness of Theorem 6.2).
type Figure7Result struct {
	Instance           *model.Instance
	UtilizationO2First float64
	UtilizationO1First float64
	GanttO2First       string
	GanttO1First       string
}

// Figure7 runs the paper's Figure 7 instance both ways and reports the
// utilizations at T=6 (1.00 and 0.75).
func Figure7() Figure7Result {
	build := func() *model.Instance {
		return model.MustNewInstance(
			[]model.Org{{Name: "O1", Machines: 2}, {Name: "O2", Machines: 2}},
			[]model.Job{
				{Org: 0, Release: 0, Size: 3},
				{Org: 0, Release: 0, Size: 3},
				{Org: 0, Release: 0, Size: 3},
				{Org: 0, Release: 0, Size: 3},
				{Org: 1, Release: 0, Size: 6},
				{Org: 1, Release: 0, Size: 6},
			},
		)
	}
	const T = 6
	// The greedy loop on one cluster (a one-slot schedule set) to T.
	run := func(order ...int) *core.Result {
		prio := core.FromPolicy("Priority", func() sim.Policy { return baseline.NewPriority(order...) })
		return core.Run(prio, build(), T, 0)
	}
	a, b, inst := run(1, 0), run(0, 1), build()
	return Figure7Result{
		Instance:           inst,
		UtilizationO2First: a.Utilization,
		UtilizationO1First: b.Utilization,
		GanttO2First:       vis.Gantt(inst, a.Starts, 4, T, 80),
		GanttO1First:       vis.Gantt(inst, b.Starts, 4, T, 80),
	}
}
