// Package gen generates synthetic sequential workloads that stand in for
// the Parallel Workload Archive traces the paper evaluates on (LPC-EGEE,
// PIK-IPLEX, SHARCNET-Whale, RICC). The real traces are not
// redistributable inside this module, so each family reproduces the
// structural properties the paper's conclusions depend on:
//
//   - bursty per-user submission ("users usually send their jobs in
//     consecutive blocks", Section 7.2): users submit geometric-length
//     sessions separated by long exponential gaps;
//   - heavy-tailed job sizes (clipped lognormal);
//   - a per-family load level, from lightly loaded (PIK-IPLEX, where the
//     paper measures near-zero unfairness) to saturated (RICC, where it
//     measures the largest unfairness).
//
// Processor counts are scaled down from the original systems by default
// (REF is exponential and the paper itself restricts to 5
// organizations); ScaleFull restores the archive sizes. Absolute delay
// values are therefore not comparable to the paper's tables — the
// algorithm ordering and growth trends are (see EXPERIMENTS.md).
package gen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SizeDist is a clipped lognormal job-size distribution.
type SizeDist struct {
	Mu    float64 // log-scale mean
	Sigma float64 // log-scale stddev
	Min   model.Time
	Max   model.Time
}

// Mean returns the distribution's mean before clipping.
func (d SizeDist) Mean() float64 { return math.Exp(d.Mu + d.Sigma*d.Sigma/2) }

// Draw samples one job size.
func (d SizeDist) Draw(rng *rand.Rand) model.Time {
	s := model.Time(math.Round(stats.LogNormal(rng, d.Mu, d.Sigma)))
	if s < d.Min {
		s = d.Min
	}
	if d.Max > 0 && s > d.Max {
		s = d.Max
	}
	return s
}

// Family describes one synthetic workload family.
type Family struct {
	Name  string
	Procs int // total processors in the system
	Users int
	// Load is the offered load: expected total work per time unit
	// divided by Procs. Load > 1 saturates the system.
	Load float64
	Size SizeDist
	// SessionJobs is the mean number of jobs in one submission burst.
	SessionJobs float64
	// ThinkTime is the mean gap between consecutive submissions inside
	// a burst.
	ThinkTime float64
}

// Generate produces a sequential trace over [0, horizon): every user
// submits bursts whose spacing is calibrated so the family's offered
// load is met in expectation.
func (f Family) Generate(horizon model.Time, rng *rand.Rand) *trace.Trace {
	tr := &trace.Trace{Header: []string{
		"Synthetic workload family " + f.Name,
		"Generated by repro/internal/gen",
	}}
	gapMean := f.gapMean(horizon)
	id := 1
	for u := 0; u < f.Users; u++ {
		// First session starts at a uniform offset so users are not
		// synchronized at t=0.
		t := model.Time(rng.Float64() * gapMean)
		for t < horizon {
			burst := stats.Geometric(rng, f.SessionJobs)
			for b := 0; b < burst && t < horizon; b++ {
				tr.Jobs = append(tr.Jobs, trace.Job{
					ID:      id,
					Submit:  t,
					Runtime: f.Size.Draw(rng),
					Procs:   1,
					User:    u,
					Status:  1,
				})
				id++
				t += model.Time(stats.Exponential(rng, f.ThinkTime)) + 1
			}
			t += model.Time(stats.Exponential(rng, gapMean))
		}
	}
	return tr
}

// gapMean is the offered-load calibration: the mean gap between one
// user's sessions at which the family's load is met in expectation
// over [0, horizon).
func (f Family) gapMean(horizon model.Time) float64 {
	targetWork := f.Load * float64(f.Procs) * float64(horizon)
	jobsTotal := targetWork / f.Size.Mean()
	jobsPerUser := jobsTotal / float64(f.Users)
	if jobsPerUser < 1 {
		jobsPerUser = 1
	}
	sessionsPerUser := jobsPerUser / f.SessionJobs
	if sessionsPerUser < 1 {
		sessionsPerUser = 1
	}
	return float64(horizon) / sessionsPerUser
}

// Instance generates a trace and converts it straight into a model
// instance: users dealt uniformly over k organizations, machines split
// by the given weights (see stats.ZipfSplit / stats.UniformSplit).
func (f Family) Instance(horizon model.Time, k int, machines []int, rng *rand.Rand) (*model.Instance, error) {
	tr := f.Generate(horizon, rng)
	orgOf := trace.AssignUsers(tr.Users(), k, rng)
	return trace.ToInstance(tr, machines, orgOf)
}

// Scale returns a copy with processor and user counts multiplied by
// factor (minimum 1 each). Load, sizes and burst structure are
// preserved, so the contention regime — what the paper's comparisons
// depend on — is unchanged.
func (f Family) Scale(factor float64) Family {
	out := f
	out.Procs = int(math.Max(1, math.Round(float64(f.Procs)*factor)))
	out.Users = int(math.Max(1, math.Round(float64(f.Users)*factor)))
	return out
}

// The four families below mirror the paper's traces. Processor counts
// are the scaled defaults used by the table experiments; ScaleFull
// restores the archive sizes (70, 2560, 3072, 8192).

// LPCEGEE models LPC-EGEE: a small cluster (70 CPUs — not scaled),
// many short sequential jobs, high load.
func LPCEGEE() Family {
	return Family{
		Name: "LPC-EGEE", Procs: 70, Users: 56, Load: 0.90,
		Size:        SizeDist{Mu: math.Log(300), Sigma: 1.0, Min: 1, Max: 20000},
		SessionJobs: 8, ThinkTime: 30,
	}
}

// PIKIPLEX models PIK-IPLEX: a large, lightly loaded machine with long
// jobs — the workload where the paper measures near-zero unfairness.
func PIKIPLEX() Family {
	return Family{
		Name: "PIK-IPLEX", Procs: 160, Users: 225, Load: 0.35,
		Size:        SizeDist{Mu: math.Log(1200), Sigma: 1.2, Min: 1, Max: 50000},
		SessionJobs: 5, ThinkTime: 120,
	}
}

// SHARCNET models SHARCNET-Whale: medium load, mixed job lengths.
func SHARCNET() Family {
	return Family{
		Name: "SHARCNET-Whale", Procs: 192, Users: 154, Load: 0.75,
		Size:        SizeDist{Mu: math.Log(1500), Sigma: 1.1, Min: 1, Max: 50000},
		SessionJobs: 6, ThinkTime: 60,
	}
}

// RICC models RICC: saturated (offered load above capacity), heavy
// tails — the workload with the paper's largest unfairness values.
func RICC() Family {
	return Family{
		Name: "RICC", Procs: 256, Users: 176, Load: 1.15,
		Size:        SizeDist{Mu: math.Log(800), Sigma: 1.3, Min: 1, Max: 40000},
		SessionJobs: 10, ThinkTime: 20,
	}
}

// Families returns the four paper workloads in table order.
func Families() []Family {
	return []Family{LPCEGEE(), PIKIPLEX(), SHARCNET(), RICC()}
}

// FamilyByName resolves a workload family by its (case-insensitive,
// punctuation-tolerant) name.
func FamilyByName(name string) (Family, error) {
	key := strings.ToLower(strings.NewReplacer("-", "", "_", "", " ", "").Replace(name))
	for _, f := range Families() {
		fk := strings.ToLower(strings.NewReplacer("-", "", "_", "", " ", "").Replace(f.Name))
		if fk == key {
			return f, nil
		}
	}
	switch key {
	case "lpc":
		return LPCEGEE(), nil
	case "pik":
		return PIKIPLEX(), nil
	case "sharcnet", "whale":
		return SHARCNET(), nil
	}
	return Family{}, fmt.Errorf("unknown workload family %q (want lpc-egee, pik-iplex, sharcnet-whale or ricc)", name)
}

// FullScaleFactors maps each family to the factor restoring the original
// archive processor counts.
func FullScaleFactor(f Family) float64 {
	switch f.Name {
	case "PIK-IPLEX":
		return 2560.0 / 160.0
	case "SHARCNET-Whale":
		return 3072.0 / 192.0
	case "RICC":
		return 8192.0 / 256.0
	default:
		return 1
	}
}
