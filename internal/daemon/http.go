package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/model"
)

// Server exposes a session Manager over HTTP/JSON.
//
// Session lifecycle:
//
//	POST   /v1/sessions           (a SessionConfig, optional "id")  → created session
//	GET    /v1/sessions                                             → session list
//	GET    /v1/sessions/{id}                                        → session state
//	DELETE /v1/sessions/{id}                                        → delete
//
// Per-session run control (one engine or one federation per session):
//
//	POST /v1/sessions/{id}/jobs        {"jobs":[{"org":0,"size":5,"cluster":1}]}
//	POST /v1/sessions/{id}/advance     {"until":100} ({} or an empty body: next event)
//	GET  /v1/sessions/{id}/state
//	GET  /v1/sessions/{id}/decisions?since=N
//	GET  /v1/sessions/{id}/checkpoint
//	POST /v1/sessions/{id}/restore     (a checkpoint)
//	GET  /v1/healthz
//
// Creating over a taken id answers 409, with an id that holds a slash
// or space or starts with a dot 400; a request body over maxBodyBytes
// answers 413. A body is one JSON value: anything but whitespace after
// it answers 400. Jobs and advance bodies and replies go through the
// wire codec (wire.go), every other route through decodeBody and
// writeJSON; encoding/json defines the format of both.
//
// Every run is reached through its session id: the create body is the
// only source of a session's static configuration, and no route names a
// session implicitly.
type Server struct {
	mgr     *Manager
	pipe    *Pipeline
	log     func(format string, args ...any)
	maxBody int64 // maxBodyBytes; a field only so a test can cross it cheaply
}

// NewServer wraps a manager for HTTP serving.
func NewServer(m *Manager) *Server { return &Server{mgr: m, maxBody: maxBodyBytes} }

// Manager returns the underlying session manager.
func (s *Server) Manager() *Manager { return s.mgr }

// SetLogf installs a sink for server-side I/O problems the client can
// no longer be told about (response-write failures, unmarshalable
// response values). Optional; set before the handler starts serving.
func (s *Server) SetLogf(logf func(format string, args ...any)) { s.log = logf }

// logf forwards to the installed sink, if any.
func (s *Server) logf(format string, args ...any) {
	if s.log != nil {
		s.log(format, args...)
	}
}

// UsePipeline routes advance requests through p instead of calling
// Session.Advance inline: requests enqueue onto the session's worker,
// which serves its sessions round-robin, so a hot session rate-limits
// against its worker instead of monopolizing handler goroutines. Set
// before the handler starts serving.
func (s *Server) UsePipeline(p *Pipeline) { s.pipe = p }

// Handler returns the server's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.withSession((*Server).handleState))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/jobs", s.withSession((*Server).handleJobs))
	mux.HandleFunc("POST /v1/sessions/{id}/advance", s.withSession((*Server).handleAdvance))
	mux.HandleFunc("GET /v1/sessions/{id}/state", s.withSession((*Server).handleState))
	mux.HandleFunc("GET /v1/sessions/{id}/decisions", s.withSession((*Server).handleDecisions))
	mux.HandleFunc("GET /v1/sessions/{id}/checkpoint", s.withSession((*Server).handleCheckpoint))
	mux.HandleFunc("POST /v1/sessions/{id}/restore", s.withSession((*Server).handleRestore))
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		s.writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "sessions": s.mgr.count()})
	})
	return mux
}

// withSession resolves the {id} path segment before invoking h.
func (s *Server) withSession(h func(*Server, http.ResponseWriter, *http.Request, *Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess, ok := s.mgr.Get(r.PathValue("id"))
		if !ok {
			s.writeError(w, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
			return
		}
		h(s, w, r, sess)
	}
}

// maxBodyBytes caps every request body. The largest legitimate one is
// a checkpoint posted to /restore (~2.5 MB for an 8-org REF session);
// 64 MiB leaves room for long runs without letting one request hold
// the process's memory.
const maxBodyBytes = 64 << 20

// decodeBody decodes the size-capped request body, one JSON value,
// into v.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := s.readBody(w, r)
	if err != nil {
		return err
	}
	return decodeJSON(body, v)
}

// bodyStatus maps a body-decode failure onto its status: 413 when the
// cap cut the body off, 400 for anything malformed.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID string `json:"id"`
		SessionConfig
	}
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeError(w, bodyStatus(err), "bad request body: %v", err)
		return
	}
	sess, err := s.mgr.Create(req.ID, req.SessionConfig)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrSessionExists):
			status = http.StatusConflict
		case errors.Is(err, errSessionsFull):
			status = http.StatusServiceUnavailable
		}
		s.writeError(w, status, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusCreated, sess.State())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	rows := []sessionRow{}
	for _, sess := range s.mgr.List() {
		rows = append(rows, sess.summary())
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"sessions": rows})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.mgr.Delete(id) {
		s.writeError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request, sess *Session) {
	body, err := s.readBody(w, r)
	var jobs []JobSubmission
	if err == nil {
		jobs, err = decodeJobs(body)
	}
	if err != nil {
		s.writeError(w, bodyStatus(err), "bad request body: %v", err)
		return
	}
	ids, now, err := sess.submit(jobs)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeBody(w, http.StatusOK, appendIDsReply(nil, ids, now))
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request, sess *Session) {
	// An empty POST body is the documented advance-to-next-event form
	// (same as {}); a truncated JSON document is still an error.
	body, err := s.readBody(w, r)
	var until *model.Time
	if err == nil {
		until, err = decodeUntil(body)
	}
	if err != nil {
		s.writeError(w, bodyStatus(err), "bad request body: %v", err)
		return
	}
	var (
		now  model.Time
		decs []Decision
	)
	if s.pipe != nil {
		now, decs, err = s.pipe.Advance(sess, until)
	} else {
		now, decs, err = sess.Advance(until)
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeBody(w, http.StatusOK, appendAdvanceReply(nil, decs, now))
}

func (s *Server) handleState(w http.ResponseWriter, _ *http.Request, sess *Session) {
	s.writeJSON(w, http.StatusOK, sess.State())
}

func (s *Server) handleDecisions(w http.ResponseWriter, r *http.Request, sess *Session) {
	since := 0
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeError(w, http.StatusBadRequest, "bad since parameter %q", v)
			return
		}
		since = n
	}
	total, decs := sess.Decisions(since)
	s.writeJSON(w, http.StatusOK, map[string]any{"total": total, "decisions": decs})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request, sess *Session) {
	data, err := sess.Checkpoint()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(data); err != nil {
		s.logf("daemon: writing checkpoint response: %v", err)
	}
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request, sess *Session) {
	body, err := s.readBody(w, r)
	if err != nil {
		s.writeError(w, bodyStatus(err), "bad snapshot: %v", err)
		return
	}
	if err := sess.Restore(body); err != nil {
		// A snapshot the session rejects is the client's problem; a
		// session whose own configuration no longer rebuilds is ours.
		status := http.StatusBadRequest
		if errors.Is(err, errRestoreConfig) {
			status = http.StatusInternalServerError
		}
		s.writeError(w, status, "%v", err)
		return
	}
	sum := sess.summary()
	s.writeJSON(w, http.StatusOK, map[string]any{"now": sum.Now, "decisions": sum.Decisions})
}

// writeJSON marshals v before touching the response, so a value that
// cannot marshal becomes a clean 500 instead of a truncated 200 with a
// committed status line; write failures (client gone mid-response) are
// reported to the server log rather than silently discarded.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		s.logf("daemon: marshaling %T response: %v", v, err)
		status = http.StatusInternalServerError
		data = []byte(`{"error":"internal: response serialization failed"}`)
	}
	s.writeBody(w, status, append(data, '\n'))
}

// writeBody sends data, a whole JSON reply, with status.
func (s *Server) writeBody(w http.ResponseWriter, status int, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(data); err != nil {
		s.logf("daemon: writing response: %v", err)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
