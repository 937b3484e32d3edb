package ctrl

import (
	"fmt"
	"math"

	"repro/internal/model"
)

// mulInt64 multiplies two non-negative int64s, reporting whether the
// product fits — every caller treats a non-fitting product as "larger
// than anything", never as the wrapped value.
func mulInt64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	c := a * b
	if c/b != a {
		return 0, false
	}
	return c, true
}

// Verdict is an admission decision's outcome.
type Verdict uint8

const (
	// Admitted: the job proceeds to routing.
	Admitted Verdict = iota
	// Rejected: the job leaves the system; it will never run here.
	Rejected
	// Deferred: the job is parked and its admission retried at RetryAt.
	Deferred
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Admitted:
		return "admitted"
	case Rejected:
		return "rejected"
	case Deferred:
		return "deferred"
	}
	return fmt.Sprintf("verdict(%d)", uint8(v))
}

// Decision is one admission verdict. RetryAt is meaningful only for
// Deferred and must lie strictly after the decision instant — a policy
// that defers without advancing time would wedge the event loop, and
// the Plane rejects it.
type Decision struct {
	Verdict Verdict
	RetryAt model.Time
}

// AdmissionPolicy decides whether a released job enters the system.
// Decide receives the job, its retry attempt (0 first try), the
// decision instant and the current — possibly stale — View, and must be
// deterministic: the Plane's determinism and checkpoint guarantees
// depend on it. Only the token bucket carries mutable state, its
// levels, and the Plane's checkpoint holds them as a typed block.
type AdmissionPolicy interface {
	Name() string
	Decide(job Job, attempt int, now model.Time, view View) Decision
}

// AlwaysAdmit admits everything — the pre-control-plane behavior, and
// the differential baseline: a run gated by AlwaysAdmit at staleness 0
// is byte-identical to the ungated run.
type AlwaysAdmit struct{}

// Name implements AdmissionPolicy.
func (AlwaysAdmit) Name() string { return "always" }

// Decide implements AdmissionPolicy.
func (AlwaysAdmit) Decide(Job, int, model.Time, View) Decision {
	return Decision{Verdict: Admitted}
}

// TokenBucket is per-organization token-bucket admission: organization
// o's bucket holds up to Burst tokens and refills at Rate tokens per
// Period time units; a job costs one token (or Size tokens with
// SizeCost). A job finding enough tokens is admitted and the tokens
// consumed; otherwise it is deferred exactly until the refill instant
// at which the bucket covers it — the earliest admissible moment, so
// deferral is work-conserving — or rejected outright when the cost
// exceeds the bucket capacity (it could never fit) or the job has
// already been deferred MaxDefers times.
//
// All arithmetic is integral: levels are stored in token-ticks (tokens
// scaled by Period), so refill accrues exactly Rate token-ticks per
// time unit with no floating-point drift — determinism and
// byte-identical checkpoints fall out.
type TokenBucket struct {
	// Rate is tokens added per Period; must be ≥ 1.
	Rate int64
	// Period is the refill timescale; must be ≥ 1.
	Period model.Time
	// Burst is the bucket capacity in tokens; must be ≥ 1.
	Burst int64
	// SizeCost charges Size tokens per job instead of 1 — admission by
	// work, not job count, which is the knob that blunts demand
	// inflation via job splitting (examples/strategyproof).
	SizeCost bool
	// MaxDefers bounds retries: a job deferred more than MaxDefers
	// times is rejected. 0 means unbounded (the bucket's refill always
	// terminates the wait).
	MaxDefers int

	// Mutable per-org state, lazily sized on first use.
	levels []int64      // token-ticks available
	synced []model.Time // instant levels[o] was last refilled to
}

// Name implements AdmissionPolicy.
func (b *TokenBucket) Name() string { return "tokenbucket" }

// capacity is a full bucket's level, Burst·Period token-ticks. A
// capacity beyond int64 is unreachable by any refill: it saturates.
func (b *TokenBucket) capacity() int64 {
	full, ok := mulInt64(b.Burst, int64(b.Period))
	if !ok {
		return math.MaxInt64
	}
	return full
}

// ensure validates the configuration and sizes the state.
func (b *TokenBucket) ensure(org int) error {
	if b.Rate < 1 || b.Period < 1 || b.Burst < 1 {
		return fmt.Errorf("ctrl: token bucket needs rate, period and burst >= 1 (have %d/%d/%d)", b.Rate, b.Period, b.Burst)
	}
	for len(b.levels) <= org {
		// New buckets start full at time 0: a fresh system admits an
		// initial burst, as a long-idle bucket would.
		b.levels = append(b.levels, b.capacity())
		b.synced = append(b.synced, 0)
	}
	return nil
}

// Decide implements AdmissionPolicy.
func (b *TokenBucket) Decide(job Job, attempt int, now model.Time, _ View) Decision {
	if err := b.ensure(job.Org); err != nil {
		// Invalid configuration fails closed, deterministically.
		return Decision{Verdict: Rejected}
	}
	o, capacity := job.Org, b.capacity()
	if dt := now - b.synced[o]; dt > 0 {
		// Refill saturates at the capacity; an accrual too large to
		// represent certainly fills the bucket. levels[o] ≥ 0 and
		// add ≥ 0, so the comparison itself cannot overflow.
		if add, ok := mulInt64(int64(dt), b.Rate); !ok || b.levels[o] > capacity-add {
			b.levels[o] = capacity
		} else {
			b.levels[o] += add
		}
	}
	b.synced[o] = now
	cost := int64(b.Period)
	if b.SizeCost {
		// A size-cost product that wraps int64 used to come out
		// negative or tiny and slip past the capacity check, admitting
		// exactly the jobs the bucket exists to reject. A cost too
		// large to represent can never fit: fail closed.
		var ok bool
		if cost, ok = mulInt64(int64(job.Size), int64(b.Period)); !ok {
			return Decision{Verdict: Rejected}
		}
	}
	if cost > capacity {
		return Decision{Verdict: Rejected}
	}
	if b.levels[o] >= cost {
		b.levels[o] -= cost
		return Decision{Verdict: Admitted}
	}
	if b.MaxDefers > 0 && attempt >= b.MaxDefers {
		return Decision{Verdict: Rejected}
	}
	// Earliest instant the refill covers the cost: ceil division keeps
	// it exact, and the shortfall is ≥ 1 token-tick, so RetryAt > now.
	shortfall := cost - b.levels[o]
	wait := (shortfall + b.Rate - 1) / b.Rate
	return Decision{Verdict: Deferred, RetryAt: now + model.Time(wait)}
}

// bucketLevels is a token bucket's mutable state as its checkpoint
// holds it.
type bucketLevels struct {
	Levels []int64      `json:"levels,omitempty"`
	Synced []model.Time `json:"synced,omitempty"`
}

// restore installs checkpointed levels for an organization universe of
// the given size. A level is one Decide could leave: between empty and
// the bucket's capacity.
func (b *TokenBucket) restore(st *bucketLevels, orgs int) error {
	if st == nil {
		return fmt.Errorf("ctrl: restore token bucket: the checkpoint holds no levels")
	}
	if len(st.Levels) != len(st.Synced) {
		return fmt.Errorf("ctrl: restore token bucket: %d levels for %d sync marks", len(st.Levels), len(st.Synced))
	}
	if len(st.Levels) > orgs {
		return fmt.Errorf("ctrl: restore token bucket: %d buckets for %d organizations", len(st.Levels), orgs)
	}
	for o, level := range st.Levels {
		if level < 0 || level > b.capacity() {
			return fmt.Errorf("ctrl: restore token bucket: organization %d holds %d token-ticks, outside [0, %d]", o, level, b.capacity())
		}
	}
	b.levels = st.Levels
	b.synced = st.Synced
	return nil
}

// Backpressure is queue-depth admission: jobs are admitted while the
// observed backlog (View.Load.Waiting — possibly stale, per the
// snapshot contract) is below MaxWaiting, deferred by RetryAfter
// otherwise, and rejected once deferred more than MaxAttempts times
// (0 = defer forever; the backlog draining over time is what
// terminates the wait). It is stateless: the view carries everything.
type Backpressure struct {
	// MaxWaiting is the backlog bound; must be ≥ 1.
	MaxWaiting int
	// RetryAfter is the defer delay; must be ≥ 1.
	RetryAfter model.Time
	// MaxAttempts bounds retries before rejection; 0 = unbounded.
	MaxAttempts int
}

// Name implements AdmissionPolicy.
func (Backpressure) Name() string { return "backpressure" }

// Decide implements AdmissionPolicy.
func (p Backpressure) Decide(_ Job, attempt int, now model.Time, view View) Decision {
	if p.MaxWaiting < 1 || p.RetryAfter < 1 {
		return Decision{Verdict: Rejected} // invalid configuration fails closed
	}
	if view.Load.Waiting < p.MaxWaiting {
		return Decision{Verdict: Admitted}
	}
	if p.MaxAttempts > 0 && attempt >= p.MaxAttempts {
		return Decision{Verdict: Rejected}
	}
	return Decision{Verdict: Deferred, RetryAt: now + p.RetryAfter}
}

// PolicySpec is the serializable form of an admission policy — what
// rides in daemon SessionConfigs and experiment configs. Build
// resolves it into a live policy; unknown or inconsistent specs fail.
type PolicySpec struct {
	// Policy is "always", "tokenbucket" or "backpressure".
	Policy string `json:"policy"`

	// Token-bucket knobs.
	Rate     int64      `json:"rate,omitempty"`
	Period   model.Time `json:"period,omitempty"`
	Burst    int64      `json:"burst,omitempty"`
	SizeCost bool       `json:"size_cost,omitempty"`

	// Backpressure knobs.
	MaxWaiting int        `json:"max_waiting,omitempty"`
	RetryAfter model.Time `json:"retry_after,omitempty"`

	// Shared retry bound (TokenBucket.MaxDefers / Backpressure.MaxAttempts).
	MaxAttempts int `json:"max_attempts,omitempty"`

	// Staleness is the admission view's max age for an owner that sets
	// its snapshot provider from the spec: a gated single session, a
	// one-member federation, gossips at it. A federated session's plane
	// observes at the federation's own gossip staleness and ignores it.
	Staleness model.Time `json:"staleness,omitempty"`
}

// Build resolves the spec into a live admission policy.
func (s PolicySpec) Build() (AdmissionPolicy, error) {
	switch s.Policy {
	case "", "always":
		return AlwaysAdmit{}, nil
	case "tokenbucket":
		// Period validates like the other knobs instead of silently
		// clamping to 1: a spec that meant "rate per 1000 ticks" but
		// dropped the period would otherwise refill 1000× too fast.
		if s.Period < 1 || s.Rate < 1 || s.Burst < 1 {
			return nil, fmt.Errorf("ctrl: token bucket spec needs rate, period and burst >= 1 (have rate %d, period %d, burst %d)", s.Rate, s.Period, s.Burst)
		}
		return &TokenBucket{Rate: s.Rate, Period: s.Period, Burst: s.Burst, SizeCost: s.SizeCost, MaxDefers: s.MaxAttempts}, nil
	case "backpressure":
		p := Backpressure{MaxWaiting: s.MaxWaiting, RetryAfter: s.RetryAfter, MaxAttempts: s.MaxAttempts}
		if p.RetryAfter < 1 {
			p.RetryAfter = 1
		}
		if p.MaxWaiting < 1 {
			return nil, fmt.Errorf("ctrl: backpressure spec needs max_waiting >= 1 (have %d)", s.MaxWaiting)
		}
		return p, nil
	default:
		return nil, fmt.Errorf("ctrl: unknown admission policy %q (want always, tokenbucket or backpressure)", s.Policy)
	}
}
