package utility

import "repro/internal/model"

// Placed is a job with its realized start, used by the classic metrics
// that — unlike ψsp — need release times.
type Placed struct {
	Release model.Time
	Start   model.Time
	Size    model.Time
}

// Completion returns the job's completion time.
func (p Placed) Completion() model.Time { return p.Start + p.Size }

// TotalFlow returns the summed flow time (completion − release) of the
// jobs completed by t. Flow time is the minimization objective the paper
// compares ψsp against (Proposition 4.2); jobs still running at t are
// excluded, mirroring the paper's Figure 2 accounting.
func TotalFlow(placed []Placed, t model.Time) int64 {
	var total int64
	for _, p := range placed {
		if c := p.Completion(); c <= t {
			total += int64(c - p.Release)
		}
	}
	return total
}
