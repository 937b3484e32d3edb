package engine

// The external tests (package engine_test) run a gated single cluster
// as a one-member federation, and internal/fed imports this package.
var (
	Steppers      = steppers
	TestInstance  = testInstance
	AssertSameRun = assertSameRun
)
