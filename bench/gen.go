package main

import (
	"hash/fnv"

	"repro/internal/daemon"
	"repro/internal/model"
)

// opKind is one kind of request against a session.
type opKind uint8

const (
	opCreate opKind = iota
	opSubmit
	opAdvance
	opState
	opCheckpoint
	opRestore
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"create", "submit", "advance", "state", "checkpoint", "restore", "delete"}

func (k opKind) String() string { return kindNames[k] }

// op is one generated operation. Times are absolute and derived from
// the round index alone, so the stream never depends on what the
// daemon answered or how fast it ran.
type op struct {
	kind  opKind
	jobs  []jobSpec  // submit: one request carrying the round's jobs
	until model.Time // advance
}

// jobSpec is one submitted job.
type jobSpec struct {
	cluster int // origin member (federations)
	org     int
	size    model.Time
	release model.Time
}

// splitmix64 is the stream's only source of randomness: a stateless
// mix, so any (seed, workload, session, round, draw) coordinate can be
// evaluated on its own.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// rng is a splitmix64 counter stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 { r.s = splitmix64(r.s); return r.s }

// intn returns a draw in [0, n). The modulo bias is irrelevant at the
// ranges used here (n ≤ 64 against 2^64).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// streamFor keys a stream on its coordinates. round −1 is the preload.
func streamFor(seed int64, w *workload, sess, round int) *rng {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	s := splitmix64(uint64(seed)) ^ h.Sum64()
	s = splitmix64(s ^ uint64(sess)<<32 ^ uint64(uint32(round)))
	return &rng{s: s}
}

// sessionConfig is session sess's configuration under a run seed; the
// session's own seed (RAND's permutation stream reads it) is derived
// from both.
func (w *workload) sessionConfig(seed int64, sess int) daemon.SessionConfig {
	return w.config(sess, int64(splitmix64(uint64(seed)^uint64(sess)*0x9E3779B97F4A7C15)>>1))
}

// skewed draws from [0, n) with a tilt toward low indices (the lower
// of two uniform draws: index 0 is ~(2n−1)x as likely as index n−1).
// Organizations and origin members are unequal in any real consortium;
// here the tilt is what saturates some members so delegation and
// migration have work to do, and what makes one organization's token
// bucket run dry while the others' stay full.
func (r *rng) skewed(n int) int {
	a, b := r.intn(n), r.intn(n)
	if b < a {
		return b
	}
	return a
}

// submit draws one submission of n jobs released in [from, from+width).
func (w *workload) submit(r *rng, n int, from, width model.Time) op {
	jobs := make([]jobSpec, n)
	for i := range jobs {
		if w.clusters > 0 {
			jobs[i].cluster = r.skewed(w.clusters)
		}
		jobs[i].org = r.skewed(w.orgs)
		jobs[i].size = w.sizeLo + model.Time(r.intn(int(w.sizeHi-w.sizeLo)+1))
		jobs[i].release = from + model.Time(r.intn(int(width)))
	}
	return op{kind: opSubmit, jobs: jobs}
}

// preloadOps is the one-time backlog submitted right after creation.
func (w *workload) preloadOps(seed int64, sess int) []op {
	return []op{w.submit(streamFor(seed, w, sess, -1), w.preload, 0, w.ticks)}
}

// due reports whether a staggered extra operation falls on this round.
func due(every, sess, round int) bool {
	return every > 0 && (round+sess)%every == every-1
}

// roundOps is the pure function the whole benchmark hangs on: the
// operations of one round of one session.
func (w *workload) roundOps(seed int64, sess, round int) []op {
	r := streamFor(seed, w, sess, round)
	start := model.Time(round) * w.ticks
	ops := make([]op, 0, 7)
	ops = append(ops, w.submit(r, w.jobs, start, w.spread), op{kind: opAdvance, until: start + w.ticks})
	if due(w.stateEvery, sess, round) {
		ops = append(ops, op{kind: opState})
	}
	if due(w.ckptEvery, sess, round) {
		ops = append(ops, op{kind: opCheckpoint}, op{kind: opRestore})
	}
	if due(w.recreateEvery, sess, round) {
		ops = append(ops, op{kind: opDelete}, op{kind: opCreate})
	}
	return ops
}
