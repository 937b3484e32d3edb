package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/model"
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

// testdata/ckptdir/default.session.json is the store an early commit's
// `fairschedd -alg ref -orgs 3 -machines 6 -checkpoint-dir` left behind
// (14 jobs, one advance to t=6, SIGTERM): a core checkpoint of version
// 1, a layout restore no longer reads (DESIGN.md §7.1). Booted beside a
// current envelope of the same shape, it is quarantined as
// default.session.json.corrupt, named in the boot log with the version
// restore reads, and the current session boots and serves as the one
// that wrote it.
func TestParentDefaultEnvelopeBoots(t *testing.T) {
	dir := t.TempDir()
	mgr := daemon.NewManager()
	cfg := daemon.SessionConfig{Kind: daemon.KindSingle, Alg: "ref", Orgs: 3, Machines: 6, Seed: 1}
	writer, err := mgr.Create("current", cfg)
	if err != nil {
		t.Fatal(err)
	}
	until := model.Time(6)
	if _, err := writer.Submit([]daemon.JobSubmission{{Org: 0, Size: 3}, {Org: 1, Size: 9}, {Org: 2, Size: 5, Release: &until}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := writer.Advance(&until); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.FlushTo(daemon.NewDirStore(dir), false); err != nil {
		t.Fatal(err)
	}
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
	log := stderr.String()
	if !strings.Contains(log, "quarantined corrupt envelope default: ") || !strings.Contains(log, fmt.Sprintf("checkpoint version 1, want %d", core.CheckpointVersion)) || !strings.Contains(log, "restored session(s) current from") {
		t.Fatalf("boot log: %q", log)
	}
	if _, err := os.Stat(filepath.Join(dir, "default.session.json.corrupt")); err != nil {
		t.Fatalf("the retired envelope was not set aside: %v", err)
	}
	ts := httptest.NewServer(a.srv.Handler())
	defer ts.Close()
	if got, want := must(t, ts, http.StatusOK, "GET", "/v1/sessions", ""), `{"sessions":[{"id":"current","kind":"single","now":6,"jobs":3,"decisions":3}]}`+"\n"; got != want {
		t.Fatalf("sessions after boot:\n%s\nwant\n%s", got, want)
	}
	state, err := json.Marshal(writer.State())
	if err != nil {
		t.Fatal(err)
	}
	if got := must(t, ts, http.StatusOK, "GET", "/v1/sessions/current/state", ""); got != string(state)+"\n" {
		t.Fatalf("the booted session's state:\n%s\nwant the writer's\n%s", got, state)
	}
}

// A client that sends its headers and then stalls mid-body is cut off:
// the daemon's server bounds the whole request, not only its headers.
// The server under test is the daemon's, with readTimeout scaled down.
func TestStalledBodyIsDisconnected(t *testing.T) {
	a, err := build(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	srv := a.httpServer()
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("server timeouts header %v, read %v, idle %v; want %v, %v, %v", srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, readHeaderTimeout, readTimeout, idleTimeout)
	}
	srv.ReadTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/sessions HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"id\":"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection with a stalled body still open after 10 s: %v", err)
	}
}
