// Command loadgen is the serving-tier load harness: it holds many
// thousands of concurrent federated sessions open in one process and
// drives them all through the async advance pipeline, printing
// throughput and p50/p95/p99 advance-latency as JSON.
//
//	loadgen -sessions 10000 -clients 64 -pipeline-workers 0
//
// Each session is a small two-cluster federation with an overloaded
// origin (so delegation routes on every session); -jobs jobs are
// submitted up front and the session is advanced -steps times by
// -step ticks. Latency is measured enqueue-to-result through the
// pipeline — queueing included, the latency a serving client sees.
// The same harness backs the daemon.pipeline.burst_p99_ms row of
// `go run ./bench -trace 1`.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/daemon"
	"repro/internal/model"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sessions = fs.Int("sessions", 10000, "concurrent federated sessions to hold open")
		clients  = fs.Int("clients", 0, "client goroutines driving traffic (0 = default)")
		workers  = fs.Int("pipeline-workers", 0, "advance pipeline workers (0 = GOMAXPROCS)")
		burst    = fs.Int("burst", 0, "per-session advances per pipeline pass (0 = default)")
		jobs     = fs.Int("jobs", 0, "jobs submitted per session (0 = default)")
		steps    = fs.Int("steps", 0, "advance steps per session (0 = default)")
		step     = fs.Int64("step", 0, "ticks per advance step (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	report, err := daemon.RunLoad(daemon.LoadConfig{
		Sessions:        *sessions,
		Clients:         *clients,
		PipelineWorkers: *workers,
		Burst:           *burst,
		JobsPerSession:  *jobs,
		Steps:           *steps,
		StepSize:        model.Time(*step),
	})
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
