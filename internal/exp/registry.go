package exp

import "repro/internal/core"

// AlgorithmByName forwards to core.AlgorithmByName. It is kept only
// because bench/ names it, and goes when bench/ stops naming it.
func AlgorithmByName(name string, randSamples int, refOpts core.RefOptions, randOpts core.RandOptions) (core.StepperAlgorithm, error) {
	return core.AlgorithmByName(name, randSamples, refOpts, randOpts)
}
