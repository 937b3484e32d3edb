// Examples smoke harness: every examples/* main must build, run to
// completion within a small budget and print byte for byte what
// testdata/examples/<name>.golden holds (rewritten with -update), so
// the demos cannot silently rot or drift as the packages underneath
// them evolve. The examples are tiny by
// design (sub-second runs); the generous timeout only guards against
// hangs. Run by plain `go test` at the module root and therefore by
// the CI race job.
package repro_test

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func TestExamplesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("examples smoke spawns the go tool; skipped in -short")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if _, err := os.Stat(filepath.Join("examples", name, "main.go")); err != nil {
			continue
		}
		ran++
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, "go", "run", "./examples/"+name)
			cmd.Dir = root
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if ctx.Err() != nil {
				t.Fatalf("example %s exceeded its time budget", name)
			}
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s%s", name, err, out, stderr.Bytes())
			}
			if len(out) == 0 {
				t.Fatalf("example %s produced no output", name)
			}
			golden := filepath.Join("testdata", "examples", name+".golden")
			if *update {
				if err := os.WriteFile(golden, out, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, want) {
				t.Errorf("example %s's stdout moved (rewrite with -update if that is meant):\ngot:\n%swant:\n%s", name, out, want)
			}
		})
	}
	if ran < 6 {
		t.Fatalf("smoke ran %d examples; the repo ships at least 6", ran)
	}
}
