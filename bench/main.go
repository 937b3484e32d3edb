// Command bench is the repository's one committed benchmark of the
// request path: it builds cmd/fairschedd, runs it as a child process
// and drives it over real loopback HTTP with a two-connection closed
// loop, on four workloads that each load a different part of the stack.
//
//	go run ./bench                          every workload, end to end
//	go run ./bench -workload thin-http      one workload
//	go run ./bench -trace 1                 the per-layer replay ledger
//	go run ./bench -aa                      the full set twice, bounds applied
//	go run ./bench -smoke                   a ~1 s shrunken pass of each mode
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (one line per workload when
// several run). See bench/README.md for the glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// defaultSeed is the seed of a run that names none.
const defaultSeed = 1

// options are the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	aa       bool
	smoke    bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: thin-http, shapley-k8, fed-gated, durable-churn or all")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed of the generated operation streams")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase: the frozen operation count is scaled by seconds/10")
	fs.IntVar(&o.trace, "trace", 0, "1 = the traced per-layer run (depth-peeling replay), 0 = the end-to-end run")
	fs.BoolVar(&o.aa, "aa", false, "run the full end-to-end set twice and apply every bound in BENCHMARK.json")
	fs.BoolVar(&o.smoke, "smoke", false, "shrink every workload to a few sessions and rounds (harness self-test)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds <= 0 || o.seconds > 60 {
		return o, fmt.Errorf("-seconds must be in (0, 60]")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	return o, nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if nproc() < 2 {
		fmt.Fprintln(stderr, "bench: refusing to run on fewer than 2 cores: generator and daemon would time-share one")
		return 2
	}

	// Nothing the benchmark starts may outlive it: children die and
	// temp dirs go on every exit path, an interrupt included.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanupAll()
		os.Exit(130)
	}()
	defer signal.Stop(sig)
	defer cleanupAll()

	if err := run(o, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func selected(o options) ([]*workload, error) {
	var ws []*workload
	if o.workload == "all" {
		ws = workloads()
	} else {
		w, err := workloadByName(o.workload)
		if err != nil {
			return nil, err
		}
		ws = []*workload{w}
	}
	if o.smoke {
		for i, w := range ws {
			ws[i] = w.smoke()
		}
	}
	return ws, nil
}

func run(o options, stdout io.Writer) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	ws, err := selected(o)
	if err != nil {
		return err
	}
	bin, err := buildDaemon(root)
	if err != nil {
		return err
	}
	b := &bench{root: root, bin: bin, out: stdout}
	b.logf("%s\n", envHeader(filepath.Join(root, buildDir)))
	if o.aa {
		return b.runAA(ws, o)
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var lines [][]byte
	incorrect := 0
	for _, w := range ws {
		var res *result
		if o.trace == 1 {
			res, err = b.runTrace(w, o, outDir)
		} else {
			res, err = b.runE2E(w, o.seed, o.seconds)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		b.printMetrics(res)
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		kind := "e2e"
		if o.trace == 1 {
			kind = "layers"
		}
		if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("result-%s-%s.json", kind, w.name)), append(line, '\n'), 0o644); err != nil {
			return err
		}
		lines = append(lines, line)
		if !res.Correct {
			incorrect++
		}
	}
	// The machine-readable result comes last: one object per workload,
	// a single workload's object being the final line.
	for _, line := range lines {
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if incorrect > 0 {
		return fmt.Errorf("%d workload(s) failed the correctness oracle", incorrect)
	}
	return nil
}
