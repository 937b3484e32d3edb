package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
)

func TestBuildFlagParsing(t *testing.T) {
	var stderr bytes.Buffer
	a, err := build([]string{"-alg", "directcontr", "-orgs", "4", "-machines", "8", "-addr", ":9999"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if a == nil || a.addr != ":9999" {
		t.Fatalf("build: app=%v", a)
	}
	if _, ok := a.srv.Manager().Get(daemon.DefaultSession); !ok {
		t.Fatal("boot did not create the default session")
	}
	if _, err := build([]string{"-alg", "nope"}, &stderr); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := build([]string{"-orgs", "0"}, &stderr); err == nil {
		t.Fatal("zero organizations accepted")
	}
	if _, err := build([]string{"-no-default-session", "-restore", "whatever.ckpt"}, &stderr); err == nil {
		t.Fatal("-restore without a fresh default session accepted")
	}
	if _, err := build([]string{"-rand-stratified", "-alg", "rand"}, &stderr); err != nil {
		t.Fatalf("-rand-stratified rejected: %v", err)
	}
	if _, err := build([]string{"-ref-driver", "bogus"}, &stderr); err == nil {
		t.Fatal("unknown REF driver accepted")
	}
	if _, err := build([]string{"-restore", "/nonexistent/ckpt"}, &stderr); err == nil {
		t.Fatal("missing checkpoint file accepted")
	}
	// The parallel federation data plane and the REF/RAND worker pool
	// are gone and their flags with them: the standard unknown-flag
	// usage error, not a silent no-op.
	for _, retired := range []string{"-fed-workers", "-workers"} {
		stderr.Reset()
		if _, err := build([]string{retired, "2"}, &stderr); err == nil {
			t.Fatalf("retired %s flag accepted", retired)
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined: "+retired) {
			t.Fatalf("%s did not produce the unknown-flag usage error: %s", retired, stderr.String())
		}
	}
	a, err = build([]string{"-no-default-session"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.srv.Manager().Get(daemon.DefaultSession); ok {
		t.Fatal("-no-default-session still created a default session")
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

// End-to-end daemon smoke over the legacy single-run endpoints: boot
// from flags, submit jobs over HTTP, advance, drain decisions,
// checkpoint to disk, and boot a second daemon from that checkpoint.
// These are the pre-session paths, kept as aliases of the "default"
// session.
func TestDaemonRoundTripAndRestore(t *testing.T) {
	var stderr bytes.Buffer
	a, err := build([]string{"-alg", "ref", "-orgs", "2", "-machines", "3", "-seed", "7"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.srv.Handler())
	defer ts.Close()

	post := func(path, body string) map[string]any {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d: %s", path, resp.StatusCode, raw)
		}
		var out map[string]any
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	post("/v1/jobs", `{"jobs":[{"org":0,"size":3},{"org":1,"size":2},{"org":1,"size":4,"release":5}]}`)
	adv := post("/v1/advance", `{"until":30}`)
	if n := len(adv["decisions"].([]any)); n != 3 {
		t.Fatalf("daemon made %d decisions, want 3", n)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(ckpt, snap, 0o644); err != nil {
		t.Fatal(err)
	}

	// The flags own the default session's shape: a checkpoint of other
	// organizations or machines is refused, like one of another -alg.
	if _, err := build([]string{"-alg", "ref", "-restore", ckpt}, &stderr); err == nil {
		t.Fatal("-restore of a 2-org checkpoint into the default 3-org session accepted")
	}
	stderr.Reset()
	a2, err := build([]string{"-alg", "ref", "-orgs", "2", "-machines", "3", "-restore", ckpt}, &stderr)
	if err != nil {
		t.Fatalf("boot from checkpoint: %v", err)
	}
	ts2 := httptest.NewServer(a2.srv.Handler())
	defer ts2.Close()
	resp, err = ts2.Client().Get(ts2.URL + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var state map[string]any
	if err := json.Unmarshal(raw, &state); err != nil {
		t.Fatal(err)
	}
	if state["now"].(float64) != 30 || state["decisions"].(float64) != 3 {
		t.Fatalf("restored daemon state: %v", state)
	}
	if !strings.Contains(stderr.String(), "restored") {
		t.Fatalf("boot log missing restore notice: %q", stderr.String())
	}
	// A restored daemon keeps serving: feed one more job and drain it.
	resp2, err := ts2.Client().Post(ts2.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"jobs":[{"org":0,"size":1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	adv2 := post2(t, ts2, "/v1/advance", `{"until":40}`)
	if n := len(adv2["decisions"].([]any)); n != 1 {
		t.Fatalf("restored daemon scheduled %d jobs, want 1: %v", n, adv2)
	}
}

func post2(t *testing.T, ts *httptest.Server, path, body string) map[string]any {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d: %s", path, resp.StatusCode, raw)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGracefulShutdownFlushesSessions: on SIGINT/SIGTERM the daemon
// flushes a final checkpoint for every live session, and a later boot
// pointed at the same directory resumes them all mid-run.
func TestGracefulShutdownFlushesSessions(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	var stderr bytes.Buffer
	a, err := build([]string{"-alg", "directcontr", "-orgs", "2", "-checkpoint-dir", dir}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.srv.Handler())

	// A second, federated session alongside the default one.
	post2(t, ts, "/v1/jobs", `{"jobs":[{"org":0,"size":4},{"org":1,"size":2}]}`)
	post2(t, ts, "/v1/advance", `{"until":10}`)
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{
	  "id":"fedrun","kind":"federation","org_names":["a","b"],"policy":"leastloaded","seed":3,
	  "clusters":[{"name":"east","alg":"directcontr","machines":[2,0]},
	              {"name":"west","alg":"directcontr","machines":[0,1]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("create federated session: %d: %s", resp.StatusCode, raw)
	}
	resp.Body.Close()
	post2(t, ts, "/v1/sessions/fedrun/jobs", `{"jobs":[{"cluster":0,"org":0,"size":5},{"cluster":0,"org":1,"size":3}]}`)
	post2(t, ts, "/v1/sessions/fedrun/advance", `{"until":6}`)
	ts.Close()

	// The signal path: shutdown drains HTTP and flushes every session.
	a.shutdown(nil, &stderr)
	if !strings.Contains(stderr.String(), "flushed 2 session checkpoint(s)") {
		t.Fatalf("shutdown log missing flush notice: %q", stderr.String())
	}
	for _, name := range []string{"default.session.json", "fedrun.session.json"} {
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
	if !strings.Contains(stderr.String(), "restored session(s) default, fedrun") {
		t.Fatalf("boot log missing reload notice: %q", stderr.String())
	}
	def, _ := b.srv.Manager().Get(daemon.DefaultSession)
	if st := def.State(); st.Now != 10 || st.Jobs != 2 {
		t.Fatalf("default session resumed wrong: %+v", st)
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
	a, err := build([]string{"-alg", "directcontr", "-orgs", "2",
		"-checkpoint-dir", dir, "-flush-interval", "2ms", "-pipeline-workers", "2"}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a.srv.Handler())
	post2(t, ts, "/v1/jobs", `{"jobs":[{"org":0,"size":4},{"org":1,"size":2}]}`)
	post2(t, ts, "/v1/advance", `{"until":10}`)
	ts.Close()

	// Wait until the envelope on disk reflects the advanced state (the
	// flusher may legitimately have flushed a pre-advance snapshot
	// first), then kill: stop only the goroutines (so the test does
	// not leak them) — no graceful shutdown, no final flush.
	deadline := time.Now().Add(5 * time.Second)
	for {
		scratch := daemon.NewManager()
		if ids, _, err := scratch.LoadStore(daemon.NewDirStore(dir)); err == nil && len(ids) == 1 {
			if s, ok := scratch.Get(daemon.DefaultSession); ok && s.State().Now == 10 {
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
	def, ok := b.srv.Manager().Get(daemon.DefaultSession)
	if !ok {
		t.Fatal("default session lost across the kill")
	}
	if st := def.State(); st.Now != 10 || st.Jobs != 2 || st.Decisions != 2 {
		t.Fatalf("session resumed at %+v, want the last flushed state", st)
	}
}
