package ctrl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/metrics"
	"repro/internal/model"
)

// state encodes the plane's state as its owner's document holds it.
func state(t *testing.T, p *Plane) []byte {
	t.Helper()
	data, err := json.Marshal(p.State())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// restore decodes a control block as its owner's document does and
// restores it into p.
func restore(p *Plane, data []byte) error {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return err
	}
	return p.RestoreState(&cp)
}

// TestVerdictQueueOrder interleaves random pushes and pops and checks
// every pop against a sort oracle: the queue hands out (instant,
// retries before arrivals, push order) — at an instant the jobs parked
// on a retry are decided before the ones that arrive, each class in the
// order it was queued. A plane restored from its state — the survivors
// listed in verdict order, with no class, push number or counter —
// pops the same.
func TestVerdictQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q verdictQueue
	var oracle []waiting // what is queued, in push order
	popNext := func(q *verdictQueue) {
		t.Helper()
		sort.SliceStable(oracle, func(a, b int) bool {
			x, y := oracle[a], oracle[b]
			if x.At != y.At {
				return x.At < y.At
			}
			return x.Attempt > 0 && y.Attempt == 0
		})
		want := oracle[0]
		oracle = oracle[1:]
		if got := q.pop(); got.Job.Seq != want.Job.Seq || got.At != want.At || got.Attempt != want.Attempt {
			t.Fatalf("popped (at %d, attempt %d, job %d), want (at %d, attempt %d, job %d)",
				got.At, got.Attempt, got.Job.Seq, want.At, want.Attempt, want.Job.Seq)
		}
	}
	for i := 0; i < 500; i++ {
		w := waiting{At: model.Time(rng.Intn(40)), Attempt: rng.Intn(3) * rng.Intn(2), Job: Job{Seq: int64(i), Size: 1}}
		q.push(w)
		oracle = append(oracle, w)
		if rng.Intn(4) == 0 {
			popNext(&q)
		}
	}
	p := NewPlane(AlwaysAdmit{}, directLoadProvider(), 1)
	p.q = q
	for _, w := range q.h {
		if w.Attempt > 0 {
			p.stats.Deferred[0]++
			p.stats.Released[0]++
		}
	}
	st := state(t, p)
	for _, key := range []string{`"id"`, `"prio"`, `"next_id"`, `"next_seq"`} {
		if bytes.Contains(st, []byte(key)) {
			t.Fatalf("the plane's state writes %s: %s", key, st)
		}
	}
	r := NewPlane(AlwaysAdmit{}, directLoadProvider(), 1)
	if err := restore(r, st); err != nil {
		t.Fatal(err)
	}
	late := waiting{At: 20, Job: Job{Seq: 1000, Size: 1}}
	r.q.push(late) // behind every restored arrival of its instant
	oracle = append(oracle, late)
	for len(oracle) > 0 {
		popNext(&r.q)
	}
	if len(r.q.h) != 0 {
		t.Fatal("restored queue has leftover jobs")
	}
}

// TestTokenBucketAdmission checks the bucket's integer refill/defer
// arithmetic: a full bucket admits a burst, an empty one defers to the
// exact refill instant, and retrying at that instant admits.
func TestTokenBucketAdmission(t *testing.T) {
	b := &TokenBucket{Rate: 1, Period: 10, Burst: 2} // 1 token per 10 ticks, cap 2
	job := Job{Org: 0, Size: 5}
	// Fresh bucket holds Burst tokens: two admits, then a defer.
	for i := 0; i < 2; i++ {
		if d := b.Decide(job, 0, 0, View{}); d.Verdict != Admitted {
			t.Fatalf("admit %d: got %v", i, d.Verdict)
		}
	}
	d := b.Decide(job, 0, 0, View{})
	if d.Verdict != Deferred {
		t.Fatalf("third job at t=0: got %v, want deferred", d.Verdict)
	}
	// Empty bucket at t=0, rate 1/10: one whole token costs 10 ticks.
	if d.RetryAt != 10 {
		t.Fatalf("retry at %d, want 10 (one token at 1/10 per tick)", d.RetryAt)
	}
	// At the retry instant the token is there.
	if d := b.Decide(job, 1, d.RetryAt, View{}); d.Verdict != Admitted {
		t.Fatalf("retry at refill instant: got %v, want admitted", d.Verdict)
	}
	// Partial refill defers by the exact remainder: at t=15 the bucket
	// holds 0.5 tokens, so the next full token lands at t=20.
	if d := b.Decide(job, 0, 15, View{}); d.Verdict != Deferred || d.RetryAt != 20 {
		t.Fatalf("partial refill: got %v retry %d, want deferred retry 20", d.Verdict, d.RetryAt)
	}
}

// TestTokenBucketSizeCostRejectsOversized: with size-based cost, a job
// larger than the bucket capacity can never fit and is rejected, not
// deferred forever.
func TestTokenBucketSizeCostRejectsOversized(t *testing.T) {
	b := &TokenBucket{Rate: 1, Period: 1, Burst: 4, SizeCost: true}
	if d := b.Decide(Job{Org: 0, Size: 3}, 0, 0, View{}); d.Verdict != Admitted {
		t.Fatalf("size 3 under cap 4: got %v", d.Verdict)
	}
	if d := b.Decide(Job{Org: 0, Size: 5}, 0, 0, View{}); d.Verdict != Rejected {
		t.Fatalf("size 5 over cap 4: got %v, want rejected", d.Verdict)
	}
}

// TestTokenBucketSizeCostOverflow: a size whose token cost wraps int64
// used to come out negative or tiny, slip under the capacity check and
// be admitted — exactly the overload job the bucket exists to stop. A
// non-representable cost must fail closed, and must not corrupt the
// bucket's level for later, honest jobs.
func TestTokenBucketSizeCostOverflow(t *testing.T) {
	const period = 1 << 20
	b := &TokenBucket{Rate: 1, Period: period, Burst: 8, SizeCost: true}
	// Size × Period wraps int64 (the old cost was a huge negative).
	huge := Job{Org: 0, Size: model.Time(math.MaxInt64/period + 2)}
	if d := b.Decide(huge, 0, 0, View{}); d.Verdict != Rejected {
		t.Fatalf("wrapping size cost: got %v, want rejected (fail closed)", d.Verdict)
	}
	// MaxInt64-sized jobs (Size × Period where Size itself is extreme).
	if d := b.Decide(Job{Org: 0, Size: model.Time(math.MaxInt64)}, 0, 0, View{}); d.Verdict != Rejected {
		t.Fatalf("MaxInt64 size: got %v, want rejected", d.Verdict)
	}
	// The failed giants consumed nothing: the full burst still admits.
	for i := 0; i < 8; i++ {
		if d := b.Decide(Job{Org: 0, Size: 1}, 0, 0, View{}); d.Verdict != Admitted {
			t.Fatalf("honest job %d after rejected giants: got %v", i, d.Verdict)
		}
	}
	if d := b.Decide(Job{Org: 0, Size: 1}, 0, 0, View{}); d.Verdict != Deferred {
		t.Fatalf("drained bucket: got %v, want deferred", d.Verdict)
	}
}

// TestTokenBucketBoundaryCost: a job costing exactly the bucket
// capacity is the largest admissible job — admitted from a full bucket,
// rejected at one token more.
func TestTokenBucketBoundaryCost(t *testing.T) {
	b := &TokenBucket{Rate: 1, Period: 3, Burst: 5, SizeCost: true}
	if d := b.Decide(Job{Org: 0, Size: 5}, 0, 0, View{}); d.Verdict != Admitted {
		t.Fatalf("cost == capacity from a full bucket: got %v", d.Verdict)
	}
	if d := b.Decide(Job{Org: 1, Size: 6}, 0, 0, View{}); d.Verdict != Rejected {
		t.Fatalf("cost == capacity+1: got %v, want rejected", d.Verdict)
	}
}

// TestTokenBucketRefillOverflowSaturates: an accrual too large to
// represent (enormous idle gap × rate) must clamp the level to the
// capacity, not wrap it negative and starve the organization.
func TestTokenBucketRefillOverflowSaturates(t *testing.T) {
	b := &TokenBucket{Rate: math.MaxInt64 / 4, Period: 1, Burst: 3}
	if d := b.Decide(Job{Org: 0}, 0, 0, View{}); d.Verdict != Admitted {
		t.Fatalf("fresh bucket: got %v", d.Verdict)
	}
	// dt × Rate overflows; the bucket is simply full again.
	if d := b.Decide(Job{Org: 0}, 0, 1000, View{}); d.Verdict != Admitted {
		t.Fatalf("post-overflow refill: got %v, want admitted", d.Verdict)
	}
	// An extreme Burst × Period capacity saturates rather than wrapping.
	b2 := &TokenBucket{Rate: 1, Period: model.Time(math.MaxInt64 / 2), Burst: 4}
	if d := b2.Decide(Job{Org: 0}, 0, 0, View{}); d.Verdict != Admitted {
		t.Fatalf("saturated capacity bucket rejected its first job: %v", d.Verdict)
	}
}

// TestPolicySpecPeriodValidated: Build validates the period like every
// other knob instead of silently clamping it to 1 — a spec that meant
// "rate per 1000 ticks" but dropped the period would otherwise refill
// 1000× too fast.
func TestPolicySpecPeriodValidated(t *testing.T) {
	if _, err := (PolicySpec{Policy: "tokenbucket", Rate: 5, Burst: 10}).Build(); err == nil {
		t.Fatal("token bucket spec without a period accepted")
	}
	if _, err := (PolicySpec{Policy: "tokenbucket", Rate: 5, Period: 1000, Burst: 10}).Build(); err != nil {
		t.Fatalf("valid token bucket spec rejected: %v", err)
	}
}

// TestTokenBucketMaxDefers: a bounded-retry bucket rejects after the
// configured number of defers.
func TestTokenBucketMaxDefers(t *testing.T) {
	b := &TokenBucket{Rate: 1, Period: 100, Burst: 1, MaxDefers: 2}
	if d := b.Decide(Job{}, 0, 0, View{}); d.Verdict != Admitted {
		t.Fatalf("first job: %v", d.Verdict)
	}
	if d := b.Decide(Job{}, 1, 0, View{}); d.Verdict != Deferred {
		t.Fatalf("attempt 1: %v, want deferred", d.Verdict)
	}
	if d := b.Decide(Job{}, 2, 0, View{}); d.Verdict != Rejected {
		t.Fatalf("attempt 2 at max 2: %v, want rejected", d.Verdict)
	}
}

// TestTokenBucketPerOrgIsolation: one organization draining its bucket
// does not touch another's.
func TestTokenBucketPerOrgIsolation(t *testing.T) {
	b := &TokenBucket{Rate: 1, Period: 10, Burst: 1}
	if d := b.Decide(Job{Org: 0}, 0, 0, View{}); d.Verdict != Admitted {
		t.Fatal("org 0 first job should admit")
	}
	if d := b.Decide(Job{Org: 0}, 0, 0, View{}); d.Verdict != Deferred {
		t.Fatal("org 0 second job should defer")
	}
	if d := b.Decide(Job{Org: 1}, 0, 0, View{}); d.Verdict != Admitted {
		t.Fatal("org 1 must be unaffected by org 0's drained bucket")
	}
}

// TestBackpressure checks the queue-depth policy against the observed
// (possibly stale) load signal.
func TestBackpressure(t *testing.T) {
	p := Backpressure{MaxWaiting: 5, RetryAfter: 7, MaxAttempts: 3}
	if d := p.Decide(Job{}, 0, 10, View{Load: Load{Waiting: 4}}); d.Verdict != Admitted {
		t.Fatalf("below bound: %v", d.Verdict)
	}
	d := p.Decide(Job{}, 0, 10, View{Load: Load{Waiting: 5}})
	if d.Verdict != Deferred || d.RetryAt != 17 {
		t.Fatalf("at bound: got %v retry %d, want deferred retry 17", d.Verdict, d.RetryAt)
	}
	if d := p.Decide(Job{}, 3, 10, View{Load: Load{Waiting: 5}}); d.Verdict != Rejected {
		t.Fatalf("attempt 3 of max 3: %v, want rejected", d.Verdict)
	}
}

// TestCachedProviderZeroStalenessDirect is the staleness-contract
// anchor: a CachedSnapshotProvider at max age 0 observes byte-
// identically to direct state reads (DirectProvider) — fresh capture,
// refreshed=true, on every call.
func TestCachedProviderZeroStalenessDirect(t *testing.T) {
	calls := 0
	capture := func(at model.Time) View {
		calls++
		return View{Load: Load{Waiting: calls, Capacity: int64(at)}}
	}
	direct := DirectProvider{Capture: capture}
	cached := NewCachedSnapshotProvider(capture, 0)
	callsDirect := []int{}
	callsCached := []int{}
	for _, at := range []model.Time{0, 3, 3, 10, 11} {
		calls = 0
		v1, r1 := direct.Observe(at)
		callsDirect = append(callsDirect, calls)
		calls = 0
		v2, r2 := cached.Observe(at)
		callsCached = append(callsCached, calls)
		if !reflect.DeepEqual(v1, v2) || r1 != r2 {
			t.Fatalf("at %d: direct (%+v,%v) != cached@0 (%+v,%v)", at, v1, r1, v2, r2)
		}
	}
	if !reflect.DeepEqual(callsDirect, callsCached) {
		t.Fatalf("capture call counts diverge: direct %v, cached@0 %v", callsDirect, callsCached)
	}
}

// TestCachedProviderStaleness: with max age Δt the provider reuses a
// view until it is at least Δt old, then refreshes, and SetMaxAge
// invalidates only on change.
func TestCachedProviderStaleness(t *testing.T) {
	captures := 0
	p := NewCachedSnapshotProvider(func(at model.Time) View {
		captures++
		return View{Load: Load{Waiting: captures}}
	}, 10)
	v, refreshed := p.Observe(0)
	if !refreshed || v.TakenAt != 0 {
		t.Fatalf("first observe: refreshed=%v taken=%d", refreshed, v.TakenAt)
	}
	if v, refreshed = p.Observe(9); refreshed || v.TakenAt != 0 {
		t.Fatalf("age 9 < 10 must reuse: refreshed=%v taken=%d", refreshed, v.TakenAt)
	}
	if v, refreshed = p.Observe(10); !refreshed || v.TakenAt != 10 {
		t.Fatalf("age 10 >= 10 must refresh: refreshed=%v taken=%d", refreshed, v.TakenAt)
	}
	if captures != 2 {
		t.Fatalf("capture ran %d times, want 2", captures)
	}
	p.SetMaxAge(10) // unchanged: cache survives
	if _, refreshed = p.Observe(11); refreshed {
		t.Fatal("SetMaxAge to the current value must not invalidate")
	}
	p.SetMaxAge(20) // changed: cache dropped
	if _, refreshed = p.Observe(11); !refreshed {
		t.Fatal("SetMaxAge to a new value must invalidate")
	}
}

// planeSink collects routed jobs and refresh edges.
type planeSink struct {
	routed    []Job
	routedAt  []model.Time
	refreshes []model.Time
	fail      error
}

func (s *planeSink) Route(job Job, t model.Time, _ View) error {
	if s.fail != nil {
		return s.fail
	}
	s.routed = append(s.routed, job)
	s.routedAt = append(s.routedAt, t)
	return nil
}

func (s *planeSink) Refreshed(t model.Time, _ View) error {
	s.refreshes = append(s.refreshes, t)
	return nil
}

func directLoadProvider() SnapshotProvider {
	return DirectProvider{Capture: func(model.Time) View { return View{} }}
}

// TestPlaneAlwaysAdmitRoutesEverything: every job is decided and routed
// at its own instant and in arrival order under AlwaysAdmit,
// and the conservation law holds.
func TestPlaneAlwaysAdmitRoutesEverything(t *testing.T) {
	p := NewPlane(AlwaysAdmit{}, directLoadProvider(), 2)
	var sink planeSink
	for i := 0; i < 5; i++ {
		p.Arrive(Job{Seq: int64(i), Org: i % 2, Size: 3}, model.Time(10*i))
	}
	if err := p.Advance(100, &sink); err != nil {
		t.Fatal(err)
	}
	if len(sink.routed) != 5 {
		t.Fatalf("routed %d of 5 jobs", len(sink.routed))
	}
	for i, job := range sink.routed {
		if job.Seq != int64(i) {
			t.Fatalf("route %d carries seq %d — arrival order violated", i, job.Seq)
		}
		if sink.routedAt[i] != model.Time(10*i) {
			t.Fatalf("job %d routed at %d, want its arrival instant %d", i, sink.routedAt[i], 10*i)
		}
	}
	st := p.Stats()
	if st.TotalReleased() != 5 || st.TotalAdmitted() != 5 || st.TotalRejected() != 0 || deferred(st) != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.LatencyMax != 0 {
		t.Fatalf("always-admit decisions are same-instant; latency max %d", st.LatencyMax)
	}
}

// TestPlaneTokenBucketDefersAndConserves: an overload burst against a
// slow bucket admits what the rate allows, defers the rest to exact
// refill instants, and the counters conserve at every quiescent point.
func TestPlaneTokenBucketDefersAndConserves(t *testing.T) {
	p := NewPlane(&TokenBucket{Rate: 1, Period: 10, Burst: 1}, directLoadProvider(), 1)
	var sink planeSink
	for i := 0; i < 4; i++ {
		p.Arrive(Job{Seq: int64(i), Org: 0, Size: 1}, 0) // burst of 4 at t=0 against 1 token + 1/10 rate
	}
	if err := p.Advance(0, &sink); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.TotalAdmitted() != 1 || deferred(st) != 3 {
		t.Fatalf("at t=0: admitted %d deferred %d, want 1/3", st.TotalAdmitted(), deferred(st))
	}
	// Deferred retries land at refill instants; drain far enough and
	// everything eventually admits, one per refill.
	if err := p.Advance(1000, &sink); err != nil {
		t.Fatal(err)
	}
	if st.TotalAdmitted() != 4 || deferred(st) != 0 || st.TotalRejected() != 0 {
		t.Fatalf("after drain: %+v", st)
	}
	if len(sink.routed) != 4 {
		t.Fatalf("routed %d of 4", len(sink.routed))
	}
	if st.LatencySum == 0 || st.LatencyMax == 0 {
		t.Fatal("deferred admissions must accrue decision latency")
	}
	if n := len(p.q.h); n != 0 {
		t.Fatalf("%d jobs left after drain", n)
	}
}

// TestPlaneDeterminismAndCheckpoint: a plane advanced in two halves
// with a State/RestoreState round-trip in between matches an
// uninterrupted run event for event.
func TestPlaneDeterminismAndCheckpoint(t *testing.T) {
	build := func() *Plane {
		return NewPlane(&TokenBucket{Rate: 1, Period: 7, Burst: 2, SizeCost: true}, directLoadProvider(), 3)
	}
	feed := func(p *Plane) {
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 40; i++ {
			p.Arrive(Job{Seq: int64(i), Org: rng.Intn(3), Size: model.Time(1 + rng.Intn(4))}, model.Time(rng.Intn(50)))
		}
	}
	// Uninterrupted run.
	a := build()
	feed(a)
	var sa planeSink
	if err := a.Advance(25, &sa); err != nil {
		t.Fatal(err)
	}
	if err := a.Advance(1000, &sa); err != nil {
		t.Fatal(err)
	}
	// Checkpointed run: same feed, snapshot mid-flight (deferred events
	// pending), restore into a fresh plane, continue.
	b := build()
	feed(b)
	var sb planeSink
	if err := b.Advance(25, &sb); err != nil {
		t.Fatal(err)
	}
	if len(b.q.h) == 0 {
		t.Fatal("test needs queued jobs at the checkpoint")
	}
	st := state(t, b)
	c := build()
	if err := restore(c, st); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(1000, &sb); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sa.routed, sb.routed) || !reflect.DeepEqual(sa.routedAt, sb.routedAt) {
		t.Fatal("checkpointed run routed differently from uninterrupted run")
	}
	if !reflect.DeepEqual(a.Stats(), c.Stats()) {
		t.Fatalf("stats diverged:\n%+v\n%+v", a.Stats(), c.Stats())
	}
}

// fixturePlane is the run behind testdata/ckpt_v2_plane.json: 40
// jobs of three organizations, all queued up front for random instants
// below 50, behind a size-cost token bucket, decided through instant 25
// — future arrivals and parked retries share the queue.
func fixturePlane(t *testing.T) (*Plane, *planeSink) {
	t.Helper()
	p := NewPlane(&TokenBucket{Rate: 1, Period: 7, Burst: 2, SizeCost: true}, directLoadProvider(), 3)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		p.Arrive(Job{Seq: int64(i), Org: rng.Intn(3), Size: model.Time(1 + rng.Intn(4))}, model.Time(rng.Intn(50)))
	}
	sink := &planeSink{}
	if err := p.Advance(25, sink); err != nil {
		t.Fatal(err)
	}
	return p, sink
}

// TestPlaneFixturesRestore: testdata/ckpt_v2_plane.json is the state
// fixturePlane captured when the control block carried its own version
// and policy keys: a fresh run's bytes are the fixture's without them.
// It restores unedited through the typed decode, the restored plane
// captures a fresh run's bytes, and decides and routes the rest of the
// queue, and one more arrival, as the fresh run does.
func TestPlaneFixturesRestore(t *testing.T) {
	fresh, _ := fixturePlane(t)
	want := state(t, fresh)
	arrivals, retries := 0, 0
	for _, w := range fresh.q.h {
		if w.Attempt > 0 {
			retries++
		} else {
			arrivals++
		}
	}
	if arrivals == 0 || retries == 0 {
		t.Fatalf("the fixture run queues %d arrivals and %d retries; it needs both", arrivals, retries)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", "ckpt_v2_plane.json"))
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.TrimSpace(raw)
	if got := bytes.Replace(raw, []byte(`{"version":2,"policy":"tokenbucket",`), []byte(`{`), 1); !bytes.Equal(got, want) {
		t.Errorf("a fresh run's state differs from the fixture's bytes without its version and policy:\n%s\nfixture\n%s", want, raw)
	}
	restored := NewPlane(&TokenBucket{Rate: 1, Period: 7, Burst: 2, SizeCost: true}, directLoadProvider(), 3)
	if err := restore(restored, raw); err != nil {
		t.Fatal(err)
	}
	if got := state(t, restored); !bytes.Equal(got, want) {
		t.Errorf("the restored plane's state differs from a fresh run's:\n%s\nwant\n%s", got, want)
	}
	straight, sa := fixturePlane(t)
	sb := &planeSink{}
	late := Job{Seq: 40, Org: 2, Size: 1}
	straight.Arrive(late, 36)
	restored.Arrive(late, 36)
	sa.routed, sa.routedAt = nil, nil
	if err := straight.Advance(1000, sa); err != nil {
		t.Fatal(err)
	}
	if err := restored.Advance(1000, sb); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sa.routed, sb.routed) || !reflect.DeepEqual(sa.routedAt, sb.routedAt) {
		t.Error("the restored plane routed differently from the uninterrupted run")
	}
	if !reflect.DeepEqual(straight.Stats(), restored.Stats()) {
		t.Errorf("stats diverged:\n%+v\n%+v", straight.Stats(), restored.Stats())
	}
}

// TestPlaneRestoreRejectsMismatchedPolicy: a token bucket's checkpoint
// holds its levels and no other policy's does, so neither restores
// under the other.
func TestPlaneRestoreRejectsMismatchedPolicy(t *testing.T) {
	always := func() *Plane { return NewPlane(AlwaysAdmit{}, directLoadProvider(), 1) }
	bucket := func() *Plane { return NewPlane(&TokenBucket{Rate: 1, Period: 1, Burst: 1}, directLoadProvider(), 1) }
	if err := restore(bucket(), state(t, always())); err == nil {
		t.Error("restoring an always-admit checkpoint into a token-bucket plane must fail")
	}
	if err := restore(always(), state(t, bucket())); err == nil {
		t.Error("restoring a token-bucket checkpoint into an always-admit plane must fail")
	}
}

// TestPlaneRestoreRejectsForeignState: the serialized queue and policy
// state are outside input; an event the plane could not have queued,
// more buckets than organizations, or a level outside [0, Burst·Period]
// is refused before it is installed.
func TestPlaneRestoreRejectsForeignState(t *testing.T) {
	build := func() *Plane {
		return NewPlane(&TokenBucket{Rate: 1, Period: 10, Burst: 1}, directLoadProvider(), 3)
	}
	p := build()
	p.Arrive(Job{Seq: 0, Org: 1, Size: 2}, 5)
	p.Arrive(Job{Seq: 1, Org: 1, Size: 2}, 5)
	if err := p.Advance(5, &planeSink{}); err != nil {
		t.Fatal(err)
	}
	st := state(t, p)
	if err := restore(build(), st); err != nil {
		t.Fatalf("the plane's own state does not restore: %v", err)
	}
	// The deferred second job is the one queued event; organizations 0
	// and 1 have buckets.
	for _, edit := range [][]string{
		{`"org":1`, `"org":3`},
		{`"org":1`, `"org":-1`},
		{`"size":2`, `"size":0`},
		{`"attempt":1`, `"attempt":-1`},
		{`"levels":[`, `"levels":[0,0,`, `"synced":[`, `"synced":[0,0,`},
		{`"levels":[`, `"levels":[-1,`, `"synced":[`, `"synced":[0,`},
		{`"levels":[`, `"levels":[11,`, `"synced":[`, `"synced":[0,`},
		{`"levels":[`, `"levels":[-9223372036854775808,`, `"synced":[`, `"synced":[0,`},
	} {
		bad := st
		for i := 0; i < len(edit); i += 2 {
			next := bytes.Replace(bad, []byte(edit[i]), []byte(edit[i+1]), 1)
			if bytes.Equal(next, bad) {
				t.Fatalf("state has no %s to edit: %s", edit[i], st)
			}
			bad = next
		}
		q := build()
		if err := restore(q, bad); err == nil {
			t.Errorf("%v restored", edit)
		} else if n := len(q.q.h); n != 0 {
			t.Errorf("%v: refused, but %d jobs were installed", edit, n)
		}
	}
}

// TestPlaneRestoreCountsParkedRetries: who waits on an admission retry
// is the queue's to say. The deferred gauge of a document is not read —
// garbage restores to the queue's count — and a gauge and a release
// count that lie together (they satisfied the law on their own, and
// restored) no longer do.
func TestPlaneRestoreCountsParkedRetries(t *testing.T) {
	build := func() *Plane {
		return NewPlane(&TokenBucket{Rate: 1, Period: 10, Burst: 1}, directLoadProvider(), 3)
	}
	p := build()
	p.Arrive(Job{Seq: 0, Org: 1, Size: 2}, 5)
	p.Arrive(Job{Seq: 1, Org: 1, Size: 2}, 5)
	if err := p.Advance(5, &planeSink{}); err != nil {
		t.Fatal(err)
	}
	st := state(t, p)
	if !bytes.Contains(st, []byte(`"released":[0,2,0],"admitted":[0,1,0],"rejected":[0,0,0],"deferred":[0,1,0]`)) {
		t.Fatalf("the fixture is not one admitted and one deferred job: %s", st)
	}
	for _, junk := range []string{`"deferred":[7,-7,7]`, `"deferred":[]`, `"deferred":[0,1,0,5]`} {
		q := build()
		if err := restore(q, bytes.Replace(st, []byte(`"deferred":[0,1,0]`), []byte(junk), 1)); err != nil {
			t.Fatalf("the gauge %s was read: %v", junk, err)
		}
		if again := state(t, q); !bytes.Equal(again, st) {
			t.Fatalf("restored past %s to\n%s\nwant\n%s", junk, again, st)
		}
	}
	lie := bytes.Replace(st, []byte(`"released":[0,2,0],"admitted":[0,1,0],"rejected":[0,0,0],"deferred":[0,1,0]`),
		[]byte(`"released":[0,3,0],"admitted":[0,1,0],"rejected":[0,0,0],"deferred":[0,2,0]`), 1)
	if err := restore(build(), lie); err == nil {
		t.Error("two deferred jobs restored over a queue that parks one")
	}
}

// TestPlaneRejectsStuckDefer: a policy deferring without advancing time
// is an error, not a wedge.
type stuckPolicy struct{ AlwaysAdmit }

func (stuckPolicy) Name() string { return "stuck" }
func (stuckPolicy) Decide(_ Job, _ int, now model.Time, _ View) Decision {
	return Decision{Verdict: Deferred, RetryAt: now}
}

func TestPlaneRejectsStuckDefer(t *testing.T) {
	p := NewPlane(stuckPolicy{}, directLoadProvider(), 1)
	p.Arrive(Job{}, 0)
	if err := p.Advance(10, &planeSink{}); err == nil {
		t.Fatal("same-instant defer must surface as an error")
	}
}

// TestPolicySpecBuild round-trips the serializable specs.
func TestPolicySpecBuild(t *testing.T) {
	cases := []struct {
		spec PolicySpec
		name string
		ok   bool
	}{
		{PolicySpec{}, "always", true},
		{PolicySpec{Policy: "always"}, "always", true},
		{PolicySpec{Policy: "tokenbucket", Rate: 2, Period: 5, Burst: 10}, "tokenbucket", true},
		{PolicySpec{Policy: "tokenbucket"}, "", false},
		{PolicySpec{Policy: "backpressure", MaxWaiting: 8}, "backpressure", true},
		{PolicySpec{Policy: "backpressure"}, "", false},
		{PolicySpec{Policy: "nonsense"}, "", false},
		// One spelling per policy: the retired aliases no longer build.
		{PolicySpec{Policy: "alwaysadmit"}, "", false},
		{PolicySpec{Policy: "always-admit"}, "", false},
		{PolicySpec{Policy: "token-bucket", Rate: 2, Period: 5, Burst: 10}, "", false},
		{PolicySpec{Policy: "queue-depth", MaxWaiting: 8}, "", false},
	}
	for i, c := range cases {
		p, err := c.spec.Build()
		if c.ok && (err != nil || p.Name() != c.name) {
			t.Fatalf("case %d: got (%v, %v), want policy %q", i, p, err, c.name)
		}
		if !c.ok && err == nil {
			t.Fatalf("case %d: expected a build error", i)
		}
	}
}

// TestVerdictString covers the diagnostic formatting.
func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{Admitted: "admitted", Rejected: "rejected", Deferred: "deferred"} {
		if got := v.String(); got != want {
			t.Fatalf("%d: %q != %q", v, got, want)
		}
	}
	if got := Verdict(9).String(); got != fmt.Sprintf("verdict(%d)", 9) {
		t.Fatalf("unknown verdict formatted as %q", got)
	}
}

// deferred is Σ Deferred: the jobs parked on an admission retry.
func deferred(st *metrics.AdmissionStats) int64 {
	var n int64
	for _, d := range st.Deferred {
		n += d
	}
	return n
}
