package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/daemon"
)

// wire builds the HTTP form of an operation: method, path and JSON
// body. Depth 0 sends it over a socket and depth 1 hands it to the
// handler, so both exercise exactly the bytes a client would send.
type wire struct {
	w    *workload
	seed int64
}

func (x wire) method(k opKind) string {
	switch k {
	case opState, opCheckpoint:
		return http.MethodGet
	case opDelete:
		return http.MethodDelete
	default:
		return http.MethodPost
	}
}

func (x wire) path(dst []byte, sess int32, k opKind) []byte {
	dst = append(dst, "/v1/sessions"...)
	if k == opCreate {
		return dst
	}
	dst = append(dst, '/')
	dst = append(dst, sessionID(int(sess))...)
	switch k {
	case opSubmit:
		dst = append(dst, "/jobs"...)
	case opAdvance:
		dst = append(dst, "/advance"...)
	case opState:
		dst = append(dst, "/state"...)
	case opCheckpoint:
		dst = append(dst, "/checkpoint"...)
	case opRestore:
		dst = append(dst, "/restore"...)
	}
	return dst
}

// body appends the request body. Submit and advance are written by
// hand: they are the hot requests and the generator should cost the
// shared cores as little as possible.
func (x wire) body(dst []byte, ln *lane, st *step) ([]byte, error) {
	switch st.op.kind {
	case opCreate:
		data, err := json.Marshal(struct {
			ID string `json:"id"`
			daemon.SessionConfig
		}{sessionID(int(st.sess)), x.w.sessionConfig(x.seed, int(st.sess))})
		return append(dst, data...), err
	case opSubmit:
		dst = append(dst, `{"jobs":[`...)
		for i, j := range st.op.jobs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"cluster":`...)
			dst = strconv.AppendInt(dst, int64(j.cluster), 10)
			dst = append(dst, `,"org":`...)
			dst = strconv.AppendInt(dst, int64(j.org), 10)
			dst = append(dst, `,"size":`...)
			dst = strconv.AppendInt(dst, int64(j.size), 10)
			dst = append(dst, `,"release":`...)
			dst = strconv.AppendInt(dst, int64(j.release), 10)
			dst = append(dst, '}')
		}
		return append(dst, `]}`...), nil
	case opAdvance:
		dst = append(dst, `{"until":`...)
		dst = strconv.AppendInt(dst, int64(st.op.until), 10)
		return append(dst, '}'), nil
	case opRestore:
		data, ok := ln.ckpt[st.sess]
		if !ok {
			return dst, fmt.Errorf("restore without a fetched checkpoint")
		}
		return append(dst, data...), nil
	}
	return dst, nil
}

func wantStatus(k opKind) int {
	if k == opCreate {
		return http.StatusCreated
	}
	return http.StatusOK
}

// httpTarget is depth 0: real HTTP/1.1 to the child over loopback, one
// persistent connection per lane. The client is deliberately bare —
// one write and one parsed reply per request on the lane's own
// goroutine — so the generator adds no scheduler hops of its own to
// the latency it reports.
type httpTarget struct {
	wire
	conns []*httpConn
}

type httpConn struct {
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	body []byte
	resp bytes.Buffer
}

func dialTarget(w *workload, seed int64, addr string) (*httpTarget, error) {
	t := &httpTarget{wire: wire{w, seed}}
	for i := 0; i < lanes; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.close()
			return nil, err
		}
		t.conns = append(t.conns, &httpConn{c: c, br: bufio.NewReaderSize(c, 64<<10)})
	}
	return t, nil
}

func (t *httpTarget) close() {
	for _, hc := range t.conns {
		hc.c.Close()
	}
	t.conns = nil
}

func (t *httpTarget) depth() string { return "D0" }

// requestLimit bounds one request: far beyond any healthy reply, short
// enough that a wedged daemon fails the run instead of hanging it.
const requestLimit = 30 * time.Second

func (t *httpTarget) exec(ln *lane, st *step) (t0, t1 time.Time, err error) {
	hc := t.conns[ln.idx]
	k := st.op.kind
	hc.body, err = t.body(hc.body[:0], ln, st)
	if err != nil {
		return
	}
	req := append(hc.req[:0], t.method(k)...)
	req = append(req, ' ')
	req = t.path(req, st.sess, k)
	req = append(req, " HTTP/1.1\r\nHost: bench\r\n"...)
	if len(hc.body) > 0 {
		req = append(req, "Content-Type: application/json\r\nContent-Length: "...)
		req = strconv.AppendInt(req, int64(len(hc.body)), 10)
		req = append(req, "\r\n"...)
	}
	req = append(req, "\r\n"...)
	req = append(req, hc.body...)
	hc.req = req

	hc.c.SetDeadline(time.Now().Add(requestLimit))
	t0 = time.Now()
	if _, err = hc.c.Write(req); err != nil {
		return
	}
	resp, err := http.ReadResponse(hc.br, nil)
	if err != nil {
		return
	}
	hc.resp.Reset()
	_, err = io.Copy(&hc.resp, resp.Body)
	resp.Body.Close()
	t1 = time.Now()
	if err != nil {
		return
	}
	ln.bytesIn += int64(len(hc.body))
	ln.bytesOut += int64(hc.resp.Len())
	if resp.StatusCode != wantStatus(k) {
		err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(hc.resp.Bytes()))
		return
	}
	switch k {
	case opAdvance, opState:
		ln.keep(st.sess, k, hc.resp.Bytes())
	case opCheckpoint:
		ln.ckpt[st.sess] = append(ln.ckpt[st.sess][:0], hc.resp.Bytes()...)
	}
	return
}
