package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
)

// must sends one request, demands the given status and returns the raw
// reply.
func must(t *testing.T, ts *httptest.Server, want int, method, path, body string) string {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s: %d, want %d: %s", method, path, resp.StatusCode, want, raw)
	}
	return string(raw)
}

func TestBuildFlagParsing(t *testing.T) {
	var stderr bytes.Buffer
	a, err := build([]string{"-addr", ":9999"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if a == nil || a.addr != ":9999" {
		t.Fatalf("build: app=%v", a)
	}
	if n := len(a.srv.Manager().List()); n != 0 {
		t.Fatalf("boot without a checkpoint directory created %d session(s)", n)
	}
	// The flags describe the process, never a run: -h lists these five.
	stderr.Reset()
	if _, err := build([]string{"-h"}, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: %v", err)
	}
	var listed []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z-]+)`).FindAllStringSubmatch(stderr.String(), -1) {
		listed = append(listed, m[1])
	}
	slices.Sort(listed)
	if want := []string{"addr", "checkpoint-dir", "flush-interval", "no-default-session", "pipeline-workers"}; !slices.Equal(listed, want) {
		t.Fatalf("-h lists %v, want %v", listed, want)
	}
	// The default session, the parallel federation data plane and the
	// REF/RAND worker pool are gone and their flags with them: the
	// standard unknown-flag usage error, not a silent no-op.
	for _, retired := range []string{
		"-alg", "-orgs", "-machines", "-split", "-seed", "-rand-n", "-rand-stratified", "-ref-driver", "-restore",
		"-admission", "-admission-rate", "-admission-period", "-admission-burst", "-admission-size-cost",
		"-admission-max-waiting", "-admission-retry-after", "-admission-max-attempts", "-admission-staleness",
		"-fed-workers", "-workers",
	} {
		stderr.Reset()
		if _, err := build([]string{retired, "2"}, &stderr); err == nil {
			t.Fatalf("retired %s flag accepted", retired)
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined: "+retired+"\n") {
			t.Fatalf("%s did not produce the unknown-flag usage error: %s", retired, stderr.String())
		}
	}
	// Declared and ignored (bench/child.go passes it).
	a, err = build([]string{"-no-default-session"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(a.srv.Manager().List()); n != 0 {
		t.Fatalf("-no-default-session boot holds %d session(s)", n)
	}
	if _, err := build([]string{"-flush-interval", "1s"}, &stderr); err == nil {
		t.Fatal("-flush-interval without -checkpoint-dir accepted")
	}
	if _, err := build([]string{"-pipeline-workers", "-1"}, &stderr); err == nil {
		t.Fatal("negative -pipeline-workers accepted")
	}
	a, err = build([]string{"-pipeline-workers", "2"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if a.pipe == nil {
		t.Fatal("-pipeline-workers did not start the advance pipeline")
	}
	a.shutdown(nil, &stderr)
}

// End-to-end daemon smoke: create a session over HTTP, submit jobs,
// advance, drain decisions, checkpoint, and resume a session of the
// same configuration on a second daemon from that checkpoint — the
// create body is the only source of the configuration on both.
func TestDaemonRoundTripAndRestore(t *testing.T) {
	const create = `{"id":"run","kind":"single","alg":"ref","orgs":2,"machines":3,"seed":7}`
	a, err := build(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.srv.Handler())
	defer ts.Close()

	must(t, ts, http.StatusCreated, "POST", "/v1/sessions", create)
	must(t, ts, http.StatusOK, "POST", "/v1/sessions/run/jobs", `{"jobs":[{"org":0,"size":3},{"org":1,"size":2},{"org":1,"size":4,"release":5}]}`)
	adv := must(t, ts, http.StatusOK, "POST", "/v1/sessions/run/advance", `{"until":30}`)
	if n := strings.Count(adv, `"job":`); n != 3 {
		t.Fatalf("daemon made %d decisions, want 3: %s", n, adv)
	}
	snap := must(t, ts, http.StatusOK, "GET", "/v1/sessions/run/checkpoint", "")

	b, err := build(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(b.srv.Handler())
	defer ts2.Close()

	// The create body owns the session's shape: a checkpoint of other
	// organizations or machines is refused, like one of another alg.
	must(t, ts2, http.StatusCreated, "POST", "/v1/sessions", `{"id":"wide","kind":"single","alg":"ref"}`)
	must(t, ts2, http.StatusBadRequest, "POST", "/v1/sessions/wide/restore", snap)
	must(t, ts2, http.StatusCreated, "POST", "/v1/sessions", `{"id":"dc","kind":"single","alg":"directcontr","orgs":2,"machines":3,"seed":7}`)
	must(t, ts2, http.StatusBadRequest, "POST", "/v1/sessions/dc/restore", snap)

	must(t, ts2, http.StatusCreated, "POST", "/v1/sessions", create)
	if got := must(t, ts2, http.StatusOK, "POST", "/v1/sessions/run/restore", snap); got != `{"decisions":3,"now":30}`+"\n" {
		t.Fatalf("restore reply: %s", got)
	}
	if st, want := must(t, ts2, http.StatusOK, "GET", "/v1/sessions/run/state", ""), must(t, ts, http.StatusOK, "GET", "/v1/sessions/run/state", ""); st != want {
		t.Fatalf("restored daemon state:\n%s\nwant\n%s", st, want)
	}
	// A restored daemon keeps serving, and continues exactly as the one
	// that never stopped: feed both one more job and drain it.
	var cont [2]string
	for i, srv := range []*httptest.Server{ts, ts2} {
		must(t, srv, http.StatusOK, "POST", "/v1/sessions/run/jobs", `{"jobs":[{"org":0,"size":1}]}`)
		cont[i] = must(t, srv, http.StatusOK, "POST", "/v1/sessions/run/advance", `{"until":40}`)
		cont[i] += must(t, srv, http.StatusOK, "GET", "/v1/sessions/run/state", "")
	}
	if n := strings.Count(cont[1], `"job":`); n != 1 {
		t.Fatalf("restored daemon scheduled %d jobs, want 1: %s", n, cont[1])
	}
	if cont[0] != cont[1] {
		t.Fatalf("restored daemon diverged:\n%s\nwant\n%s", cont[1], cont[0])
	}
}

// TestGracefulShutdownFlushesSessions: on SIGINT/SIGTERM the daemon
// flushes a final checkpoint for every live session, and a later boot
// pointed at the same directory resumes them all mid-run.
func TestGracefulShutdownFlushesSessions(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	var stderr bytes.Buffer
	a, err := build([]string{"-checkpoint-dir", dir}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.srv.Handler())

	// A single-cluster and a federated session side by side.
	must(t, ts, http.StatusCreated, "POST", "/v1/sessions", `{"id":"solo","kind":"single","alg":"directcontr","orgs":2}`)
	must(t, ts, http.StatusOK, "POST", "/v1/sessions/solo/jobs", `{"jobs":[{"org":0,"size":4},{"org":1,"size":2}]}`)
	must(t, ts, http.StatusOK, "POST", "/v1/sessions/solo/advance", `{"until":10}`)
	must(t, ts, http.StatusCreated, "POST", "/v1/sessions", `{
	  "id":"fedrun","kind":"federation","org_names":["a","b"],"policy":"leastloaded","seed":3,
	  "clusters":[{"name":"east","alg":"directcontr","machines":[2,0]},
	              {"name":"west","alg":"directcontr","machines":[0,1]}]}`)
	must(t, ts, http.StatusOK, "POST", "/v1/sessions/fedrun/jobs", `{"jobs":[{"cluster":0,"org":0,"size":5},{"cluster":0,"org":1,"size":3}]}`)
	must(t, ts, http.StatusOK, "POST", "/v1/sessions/fedrun/advance", `{"until":6}`)
	ts.Close()

	// The signal path: shutdown drains HTTP and flushes every session.
	a.shutdown(nil, &stderr)
	if !strings.Contains(stderr.String(), "flushed 2 session checkpoint(s)") {
		t.Fatalf("shutdown log missing flush notice: %q", stderr.String())
	}
	for _, name := range []string{"solo.session.json", "fedrun.session.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing flushed envelope: %v", err)
		}
	}

	// Next boot resumes both sessions exactly where they stopped.
	stderr.Reset()
	b, err := build([]string{"-checkpoint-dir", dir}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "restored session(s) fedrun, solo") {
		t.Fatalf("boot log missing reload notice: %q", stderr.String())
	}
	solo, _ := b.srv.Manager().Get("solo")
	if st := solo.State(); st.Now != 10 || st.Jobs != 2 {
		t.Fatalf("single session resumed wrong: %+v", st)
	}
	fr, ok := b.srv.Manager().Get("fedrun")
	if !ok {
		t.Fatal("federated session not resumed")
	}
	if st := fr.State(); st.Now != 6 || st.Kind != daemon.KindFederation || st.Jobs != 2 {
		t.Fatalf("federated session resumed wrong: %+v", st)
	}
}

// TestKillAndRestartUnderPeriodicFlush: with -flush-interval the store
// persists dirty sessions in the background, so a hard kill (no
// graceful shutdown, no final flush) loses nothing that was flushed —
// and a truncated envelope planted in the directory is quarantined at
// boot instead of blocking it.
func TestKillAndRestartUnderPeriodicFlush(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	var stderr bytes.Buffer
	a, err := build([]string{"-checkpoint-dir", dir, "-flush-interval", "2ms", "-pipeline-workers", "2"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.srv.Handler())
	must(t, ts, http.StatusCreated, "POST", "/v1/sessions", `{"id":"solo","kind":"single","alg":"directcontr","orgs":2}`)
	must(t, ts, http.StatusOK, "POST", "/v1/sessions/solo/jobs", `{"jobs":[{"org":0,"size":4},{"org":1,"size":2}]}`)
	must(t, ts, http.StatusOK, "POST", "/v1/sessions/solo/advance", `{"until":10}`)
	ts.Close()

	// Wait until the envelope on disk reflects the advanced state (the
	// flusher may legitimately have flushed a pre-advance snapshot
	// first), then kill: stop only the goroutines (so the test does
	// not leak them) — no graceful shutdown, no final flush.
	deadline := time.Now().Add(5 * time.Second)
	for {
		scratch := daemon.NewManager()
		if ids, _, err := scratch.LoadStore(daemon.NewDirStore(dir)); err == nil && len(ids) == 1 {
			if s, ok := scratch.Get("solo"); ok && s.State().Now == 10 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("background flusher never persisted the advanced state within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	a.flusher.Stop()
	a.pipe.Close()

	// A corrupt envelope appears in the directory (a crashed foreign
	// writer, say): the next boot must quarantine it, not die.
	if err := os.WriteFile(filepath.Join(dir, "broken.session.json"), []byte(`{"id":"bro`), 0o644); err != nil {
		t.Fatal(err)
	}

	stderr.Reset()
	b, err := build([]string{"-checkpoint-dir", dir}, &stderr)
	if err != nil {
		t.Fatalf("boot after kill: %v", err)
	}
	if !strings.Contains(stderr.String(), "quarantined corrupt envelope") {
		t.Fatalf("boot log missing quarantine notice: %q", stderr.String())
	}
	solo, ok := b.srv.Manager().Get("solo")
	if !ok {
		t.Fatal("session lost across the kill")
	}
	if st := solo.State(); st.Now != 10 || st.Jobs != 2 || st.Decisions != 2 {
		t.Fatalf("session resumed at %+v, want the last flushed state", st)
	}
}

// testdata/ckptdir/default.session.json is the store the parent
// commit's `fairschedd -alg ref -orgs 3 -machines 6 -checkpoint-dir`
// left behind (14 jobs, one advance to t=6, SIGTERM) when the flags
// still built a "default" session. It boots as an ordinary session and
// continues with the decisions the parent's own reboot made. The φ of
// the last reply are 5963/6, 5015/6 and 4358/6 correctly rounded; the
// commit that wrote the envelope summed float marginals and printed
// each one ulp lower.
func TestParentDefaultEnvelopeBoots(t *testing.T) {
	dir := t.TempDir()
	env, err := os.ReadFile(filepath.Join("testdata", "ckptdir", "default.session.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "default.session.json"), env, 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	a, err := build([]string{"-checkpoint-dir", dir}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "restored session(s) default from") {
		t.Fatalf("boot log: %q", stderr.String())
	}
	ts := httptest.NewServer(a.srv.Handler())
	defer ts.Close()
	for _, step := range []struct{ method, path, body, want string }{
		{"GET", "/v1/sessions", "",
			`{"sessions":[{"id":"default","kind":"single","now":6,"jobs":14,"decisions":10}]}`},
		{"POST", "/v1/sessions/default/jobs", `{"jobs":[{"org":0,"size":3},{"org":1,"size":2},{"org":2,"size":5,"release":9}]}`,
			`{"ids":[14,15,16],"now":6}`},
		{"POST", "/v1/sessions/default/advance", `{"until":40}`,
			`{"decisions":[{"job":6,"org":1,"cluster":0,"machine":0,"at":7},{"job":11,"org":1,"cluster":0,"machine":1,"at":7},{"job":15,"org":1,"cluster":0,"machine":4,"at":7},{"job":10,"org":0,"cluster":0,"machine":5,"at":8},{"job":16,"org":2,"cluster":0,"machine":3,"at":9},{"job":14,"org":0,"cluster":0,"machine":4,"at":9},{"job":13,"org":2,"cluster":0,"machine":0,"at":20}],"now":40}`},
		{"GET", "/v1/sessions/default/state", "",
			`{"id":"default","kind":"single","algorithm":"REF","now":40,"jobs":17,"decisions":17,"psi":[981,812,763],"phi":[993.8333333333334,835.8333333333334,726.3333333333334],"value":2556,"utilization":0.3125}`},
	} {
		if got := must(t, ts, http.StatusOK, step.method, step.path, step.body); got != step.want+"\n" {
			t.Fatalf("%s %s:\n%s\nwant the parent's\n%s", step.method, step.path, got, step.want)
		}
	}
}
