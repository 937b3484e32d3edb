package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5, 2, 8, 4, 6, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0, 1}, {0.1, 1}, {0.5, 5}, {0.95, 10}, {0.9, 9}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of ten = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if xs[0] != 9 {
		t.Error("percentile or median reordered its input")
	}
}

func TestSelfTimesTelescope(t *testing.T) {
	sums := []float64{100, 60, 55, 55, 20, 12}
	self := selfTimes(sums)
	want := []float64{40, 5, 0, 35, 8, 12}
	var total float64
	for i := range self {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %v, want %v", i, self[i], want[i])
		}
		total += self[i]
	}
	if total != sums[0] {
		t.Errorf("self times sum to %v, want depth 0's %v", total, sums[0])
	}
}

// encodeOps serializes an op list to bytes, the form the determinism
// test compares.
func encodeOps(dst []byte, ops []op) []byte {
	for _, o := range ops {
		dst = append(dst, byte(o.kind))
		dst = binary.AppendVarint(dst, int64(o.until))
		for _, j := range o.jobs {
			for _, v := range [...]int64{int64(j.cluster), int64(j.org), int64(j.size), int64(j.release)} {
				dst = binary.AppendVarint(dst, v)
			}
		}
	}
	return dst
}

// streamBytes is the complete op stream of a run: every session's
// preload followed by rounds [0, rounds).
func (w *workload) streamBytes(seed int64, rounds int) []byte {
	var out []byte
	for s := 0; s < w.sessions; s++ {
		out = encodeOps(out, w.preloadOps(seed, s))
		for r := 0; r < rounds; r++ {
			out = encodeOps(out, w.roundOps(seed, s, r))
		}
	}
	return out
}

func TestSeededStreams(t *testing.T) {
	for _, w := range workloads() {
		w = w.smoke()
		a, b := w.streamBytes(7, 8), w.streamBytes(7, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different op streams", w.name)
		}
		if bytes.Equal(a, w.streamBytes(8, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", w.name)
		}
		// The plan is the stream cut into lanes and laps: ids unique and
		// dense, every session in exactly one lane.
		p := newPlan(w, 7, 8)
		seen := map[int32]bool{}
		lane := map[int32]int{}
		walk := func(l int, steps []step) {
			for _, st := range steps {
				if seen[st.id] {
					t.Fatalf("%s: op id %d planned twice", w.name, st.id)
				}
				seen[st.id] = true
				if prev, ok := lane[st.sess]; ok && prev != l {
					t.Fatalf("%s: session %d in lanes %d and %d", w.name, st.sess, prev, l)
				}
				lane[st.sess] = l
			}
		}
		for l := range p.setup {
			walk(l, p.setup[l])
		}
		for _, lap := range p.laps {
			for l := range lap {
				walk(l, lap[l])
			}
		}
		if len(lane) != w.sessions {
			t.Errorf("%s: plan touches %d sessions, want %d", w.name, len(lane), w.sessions)
		}
	}
}

// One flipped decision must fail the oracle, through the same decode
// and fold path the end-to-end run uses on the child's replies.
func TestOracleCatchesFlippedDecision(t *testing.T) {
	w, err := workloadByName("thin-http")
	if err != nil {
		t.Fatal(err)
	}
	w = w.smoke()
	reply := `{"now":5,"decisions":[{"job":0,"org":1,"cluster":0,"machine":2,"at":3},{"job":1,"org":0,"cluster":0,"machine":0,"at":4}]}` + "\n"
	fold := func(body string) []digest {
		ln := newLanes(w)[0]
		ln.keep(1, opAdvance, []byte(body))
		ln.keep(1, opState, []byte(`{"now":5}`))
		ln.foldStash()
		if ln.failed != 0 {
			t.Fatalf("fold failed: %v", ln.err)
		}
		return ln.dig
	}
	want := fold(reply)
	var same checker
	same.compareDigests("same", fold(reply), want, true)
	if same.failed != 0 {
		t.Fatalf("identical replies failed the oracle: %v", same.first)
	}
	var flipped checker
	flipped.compareDigests("flipped", fold(strings.Replace(reply, `"machine":2`, `"machine":3`, 1)), want, true)
	if flipped.failed != 1 {
		t.Fatalf("a flipped decision produced %d oracle failures, want 1 (%v)", flipped.failed, flipped.first)
	}
	var reordered checker
	swapped := `{"now":5,"decisions":[{"job":1,"org":0,"cluster":0,"machine":0,"at":4},{"job":0,"org":1,"cluster":0,"machine":2,"at":3}]}` + "\n"
	reordered.compareDigests("reordered", fold(swapped), want, true)
	if reordered.failed != 1 {
		t.Fatalf("reordered decisions produced %d oracle failures, want 1", reordered.failed)
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics, or the driver would wait for a metric that never comes.
func TestBenchmarkJSON(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if o, err := parseFlags(nil, io.Discard); err != nil || o.seconds != float64(bf.RunSeconds) {
		t.Errorf("-seconds defaults to %v, run_seconds is %d (%v)", o.seconds, bf.RunSeconds, err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their reasons differ)", i, bf.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(bf.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(bf.EndToEnd), len(e2eMetrics))
	}
	sawSetup := false
	for i, m := range e2eMetrics {
		e := bf.EndToEnd[i]
		if e.Name != m.name || e.Unit != m.unit || e.Better != m.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, e, m)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		sawSetup = sawSetup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric")
	}
	if len(bf.PerLayer) != len(layerMetrics) || len(bf.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program (limit 128)", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		l := bf.PerLayer[i]
		if l.Name != m.name || l.Unit != m.unit || l.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, l, m)
		}
	}
}

// lastResults decodes the trailing JSON lines of a run's output.
func lastResults(t *testing.T, out string, n int) []result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < n {
		t.Fatalf("output has %d lines, want at least %d results", len(lines), n)
	}
	var rs []result
	for _, line := range lines[len(lines)-n:] {
		var r result
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("result line %q: %v", line, err)
		}
		rs = append(rs, r)
	}
	return rs
}

// The smoke pass drives the real thing — build, child process,
// loopback HTTP, crash recovery, oracle — on shrunken workloads, so
// tier-1 covers the harness without a two-minute run.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	var out bytes.Buffer
	if code := realMain([]string{"-smoke", "-seed", "3"}, &out, io.Discard); code != 0 {
		t.Fatalf("bench -smoke exited %d:\n%s", code, out.String())
	}
	for i, r := range lastResults(t, out.String(), len(workloads())) {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("workload %d: correct=%v failed=%d attempted=%d", i, r.Correct, r.Failed, r.Attempted)
		}
		if len(r.Metrics) != len(e2eMetrics) {
			t.Errorf("workload %d: %d metrics, want %d", i, len(r.Metrics), len(e2eMetrics))
		}
		for _, m := range e2eMetrics {
			got, ok := r.Metrics[m.name]
			if !ok || got.Unit != m.unit || !(got.Value > 0) {
				t.Errorf("workload %d: metric %s = %+v (present %v); every end-to-end metric must be positive", i, m.name, got, ok)
			}
		}
	}
}

func TestSmokeTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	var out bytes.Buffer
	if code := realMain([]string{"-smoke", "-trace", "1"}, &out, io.Discard); code != 0 {
		t.Fatalf("bench -smoke -trace 1 exited %d:\n%s", code, out.String())
	}
	ws := workloads()
	for i, r := range lastResults(t, out.String(), len(ws)) {
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: decision digests differ between depths (failed=%d)", ws[i].name, r.Failed)
		}
		if len(r.Metrics) != len(layerMetrics) {
			t.Errorf("%s: %d metrics, want %d", ws[i].name, len(r.Metrics), len(layerMetrics))
		}
		// Differences of adjacent depths are noise at smoke size; only
		// rows that are direct measurements must be positive.
		for _, name := range []string{"client.request_us", "trace.overhead_ratio", "core.ref.step_us", "bargain.solve_us.k8"} {
			if !(r.Metrics[name].Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", ws[i].name, name, r.Metrics[name].Value)
			}
		}
		// The store is on durable-churn's path and nobody else's.
		busy := r.Metrics["daemon.store.busy_ratio"].Value
		if ws[i].store != (busy > 0) {
			t.Errorf("%s: daemon.store.busy_ratio = %v with store=%v", ws[i].name, busy, ws[i].store)
		}
		root, _ := repoRoot()
		info, err := os.Stat(filepath.Join(root, "bench", "out", "trace-"+ws[i].name+".jsonl"))
		if err != nil || info.Size() == 0 {
			t.Errorf("%s: no span file written (%v)", ws[i].name, err)
		}
	}
}

func TestFlags(t *testing.T) {
	// The driver's spelling: double dashes, -trace with a value.
	o, err := parseFlags([]string{"--workload", "fed-gated", "--seed", "9", "--seconds", "10", "--trace", "1"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "fed-gated" || o.seed != 9 || o.seconds != 10 || o.trace != 1 {
		t.Errorf("parsed %+v", o)
	}
	for _, bad := range [][]string{{"-trace", "2"}, {"-seconds", "0"}, {"extra"}} {
		if _, err := parseFlags(bad, io.Discard); err == nil {
			t.Errorf("flags %v accepted", bad)
		}
	}
	if _, err := selected(options{workload: "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
}
