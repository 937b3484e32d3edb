// Command fairschedd is the serving daemon: one process holds many
// concurrent scheduling runs open — single-cluster engine runs and
// federated multi-cluster runs — managed as sessions over HTTP/JSON.
//
//	fairschedd -addr :8080 -checkpoint-dir /var/lib/fairschedd
//
// The flags describe the process — listen address, checkpoint store,
// flush period, advance pipeline — and nothing about any run. A
// session's static configuration comes from one place, the body of the
// POST /v1/sessions that creates it, and its state from the store or a
// POST /v1/sessions/{id}/restore:
//
//	curl -X POST localhost:8080/v1/sessions -d '{"id":"r1","kind":"single",
//	  "alg":"ref","orgs":3,"machines":6}'
//	curl -X POST localhost:8080/v1/sessions -d '{"id":"f1","kind":"federation",
//	  "org_names":["a","b"],"policy":"fairness",
//	  "clusters":[{"name":"east","alg":"ref","machines":[2,0]},
//	              {"name":"west","alg":"directcontr","machines":[0,2]}]}'
//	curl -X POST localhost:8080/v1/sessions/f1/jobs -d '{"jobs":[{"cluster":0,"org":0,"size":5}]}'
//	curl -X POST localhost:8080/v1/sessions/f1/advance -d '{"until":100}'
//	curl localhost:8080/v1/sessions/f1/state
//
// Persistence: with -checkpoint-dir, session state lives in a
// crash-safe disk store (atomic temp-file + rename envelope writes).
// A SIGINT/SIGTERM triggers a graceful shutdown that flushes a final
// checkpoint envelope for every live session before exit, and the next
// boot with the same directory resumes them all — corrupt envelopes
// are quarantined as "<name>.corrupt" and reported instead of blocking
// the boot. -flush-interval additionally flushes dirty sessions in the
// background at that period, bounding what a hard crash can lose to
// one interval per session.
//
// Serving: with -pipeline-workers N, advance requests run through the
// async serving pipeline — a session's requests enqueue onto the one
// of N workers its id hashes to, and a worker serves many sessions per
// wakeup, round-robin, so one hot session cannot starve the others.
//
// See internal/daemon for the endpoint reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/daemon"
)

// app is a built daemon: the session manager plus the serving options.
type app struct {
	srv     *daemon.Server
	addr    string
	ckptDir string
	store   daemon.CheckpointStore
	flusher *daemon.Flusher
	pipe    *daemon.Pipeline
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so idle or trickling clients cannot pin goroutines.
const readHeaderTimeout = 10 * time.Second

func main() {
	a, err := build(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	fail(err)
	httpSrv := &http.Server{Addr: a.addr, Handler: a.srv.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		defer close(done)
		<-sig
		a.shutdown(httpSrv, os.Stderr)
	}()
	fmt.Fprintf(os.Stderr, "fairschedd: serving on %s\n", a.addr)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fail(err)
	}
	<-done
}

// shutdown drains the HTTP server, stops the background flusher and
// the advance pipeline, then flushes a final checkpoint for every live
// session (when a checkpoint directory is configured) so no run state
// is lost on SIGINT/SIGTERM.
func (a *app) shutdown(httpSrv *http.Server, stderr io.Writer) {
	fmt.Fprintln(stderr, "fairschedd: shutting down")
	if httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(stderr, "fairschedd: http shutdown:", err)
		}
	}
	if a.flusher != nil {
		a.flusher.Stop()
	}
	if a.pipe != nil {
		a.pipe.Close()
	}
	if a.store == nil {
		return
	}
	ids, err := a.srv.Manager().FlushTo(a.store, false)
	if err != nil {
		fmt.Fprintln(stderr, "fairschedd: final checkpoint flush:", err)
	}
	fmt.Fprintf(stderr, "fairschedd: flushed %d session checkpoint(s) to %s\n", len(ids), a.ckptDir)
}

// build constructs the daemon from command-line arguments; split from
// main so tests exercise the full boot path — including session
// reload — without binding a socket.
func build(args []string, stderr io.Writer) (*app, error) {
	fs := flag.NewFlagSet("fairschedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8080", "HTTP listen address")
		ckptDir  = fs.String("checkpoint-dir", "", "directory for session checkpoints: reloaded at boot, flushed on graceful shutdown")
		flushInt = fs.Duration("flush-interval", 0, "background flush period for dirty sessions (0 = flush only at shutdown; needs -checkpoint-dir)")
		pipeW    = fs.Int("pipeline-workers", 0, "async advance pipeline workers (0 = advance synchronously in the handler)")
	)
	// Ignored, declared only because bench/child.go passes it (ROADMAP item 1(a) unpins it).
	fs.Bool("no-default-session", false, "ignored; every session is created via the API")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		// The FlagSet already printed the error and usage to stderr.
		return nil, errors.New("invalid arguments")
	}
	if *flushInt < 0 || *pipeW < 0 {
		return nil, fmt.Errorf("-flush-interval and -pipeline-workers must be non-negative")
	}
	if *flushInt > 0 && *ckptDir == "" {
		return nil, fmt.Errorf("-flush-interval needs -checkpoint-dir")
	}
	mgr := daemon.NewManager()
	var store daemon.CheckpointStore
	if *ckptDir != "" {
		store = daemon.NewDirStore(*ckptDir)
		mgr.SetStore(store)
		ids, quarantined, err := mgr.LoadStore(store)
		if err != nil {
			return nil, err
		}
		for _, q := range quarantined {
			fmt.Fprintf(stderr, "fairschedd: quarantined corrupt envelope %s: %v\n", q.ID, q.Err)
		}
		if len(ids) > 0 {
			fmt.Fprintf(stderr, "fairschedd: restored session(s) %s from %s\n", strings.Join(ids, ", "), *ckptDir)
		}
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "fairschedd: "+format+"\n", args...)
	}
	a := &app{srv: daemon.NewServer(mgr), addr: *addr, ckptDir: *ckptDir, store: store}
	a.srv.SetLogf(logf)
	if *pipeW > 0 {
		a.pipe = daemon.NewPipeline(daemon.PipelineOptions{Workers: *pipeW})
		a.srv.UsePipeline(a.pipe)
	}
	if *flushInt > 0 {
		a.flusher = daemon.StartFlusher(mgr, store, *flushInt, logf)
	}
	return a, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fairschedd:", err)
		os.Exit(1)
	}
}
