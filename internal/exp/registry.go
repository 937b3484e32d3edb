package exp

import (
	"fmt"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/sim"
)

// AlgorithmByName resolves a command-line algorithm name (matched
// case-insensitively). randSamples and randOpts parameterize "rand";
// refOpts parameterizes "ref".
func AlgorithmByName(name string, randSamples int, refOpts core.RefOptions, randOpts core.RandOptions) (core.StepperAlgorithm, error) {
	switch strings.ToLower(name) {
	case "ref":
		return core.RefAlgorithm{Opts: refOpts}, nil
	case "rand":
		return core.RandAlgorithm{Samples: randSamples, Opts: randOpts}, nil
	case "directcontr":
		return core.DirectContrAlgorithm(), nil
	case "nbs":
		return core.NbsAlgorithm{}, nil
	case "fairshare":
		return core.FromPolicy("FairShare", func() sim.Policy { return baseline.NewFairShare() }), nil
	case "utfairshare":
		return core.FromPolicy("UtFairShare", func() sim.Policy { return baseline.NewUtFairShare() }), nil
	case "currfairshare":
		return core.FromPolicy("CurrFairShare", func() sim.Policy { return baseline.NewCurrFairShare() }), nil
	case "roundrobin":
		return core.FromPolicy("RoundRobin", func() sim.Policy { return baseline.NewRoundRobin() }), nil
	case "fcfs":
		return core.FromPolicy("FCFS", func() sim.Policy { return baseline.NewFCFS() }), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q (want ref, rand, directcontr, nbs, fairshare, utfairshare, currfairshare, roundrobin or fcfs)", name)
	}
}
