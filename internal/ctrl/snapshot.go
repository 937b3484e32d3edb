package ctrl

import "repro/internal/model"

// Load is the standardized load signal every owner exposes to admission
// policies: how many accepted jobs are waiting (queued but not started)
// and the total service capacity, at the snapshot instant. Policies that
// need richer structure (the federation's exchanged summaries) read the
// owner-defined Payload instead.
type Load struct {
	Waiting  int   `json:"waiting"`
	Capacity int64 `json:"capacity"`
}

// View is one observation of system state, explicitly aged: TakenAt is
// when the observation was captured, and a decision at instant t acts
// on a view of age t−TakenAt. Payload carries the owner's full
// observation (internal/fed stores its exchange — member summaries and
// the routed-work matrix); an owner with no more than Load leaves it
// nil.
type View struct {
	TakenAt model.Time `json:"taken_at"`
	Load    Load       `json:"load"`
	Payload any        `json:"-"`
}

// CaptureFunc captures a fresh observation at instant t. The provider
// fills TakenAt; implementations fill Load and Payload.
type CaptureFunc func(t model.Time) View

// SnapshotProvider is the staleness contract: Observe returns the view
// a decision at instant t acts on and reports whether this call
// captured a fresh snapshot (the "gossip arrived" edge owners hook
// re-delegation onto). Implementations must be deterministic: the
// sequence of Observe calls fully determines the views returned.
type SnapshotProvider interface {
	Observe(t model.Time) (View, bool)
	// MaxAge returns the staleness bound Δt: a returned view is never
	// older than Δt at its decision instant (0 = always fresh).
	MaxAge() model.Time
}

// DirectProvider is the zero-staleness provider: every Observe captures
// fresh state. It is the observability model the pre-control-plane code
// paths implicitly used — CachedSnapshotProvider at max age 0 is
// byte-identical to it (TestCachedProviderZeroStalenessDirect).
type DirectProvider struct {
	Capture CaptureFunc
}

// Observe implements SnapshotProvider.
func (p DirectProvider) Observe(t model.Time) (View, bool) {
	v := p.Capture(t)
	v.TakenAt = t
	return v, true
}

// MaxAge implements SnapshotProvider.
func (DirectProvider) MaxAge() model.Time { return 0 }

// CachedSnapshotProvider bounds observation staleness: a captured view
// is reused until it is at least maxAge old, then recaptured — periodic
// gossip, monitoring-scrape or cache-refresh observability, as one
// knob. Max age ≤ 0 degenerates to DirectProvider behavior exactly
// (fresh capture on every Observe, refreshed always true).
//
// The cache is part of the owner's deterministic state: owners persist
// (TakenAt, Load, Payload) in their checkpoints and re-install them
// with Prime on restore, so a run restored mid-staleness-period keeps
// deciding on the same aged view an uninterrupted run would.
type CachedSnapshotProvider struct {
	capture CaptureFunc
	maxAge  model.Time
	valid   bool
	view    View
}

// NewCachedSnapshotProvider returns a provider capturing through fn with
// the given staleness bound.
func NewCachedSnapshotProvider(fn CaptureFunc, maxAge model.Time) *CachedSnapshotProvider {
	if maxAge < 0 {
		maxAge = 0
	}
	return &CachedSnapshotProvider{capture: fn, maxAge: maxAge}
}

// Observe implements SnapshotProvider.
func (p *CachedSnapshotProvider) Observe(t model.Time) (View, bool) {
	if p.maxAge <= 0 {
		v := p.capture(t)
		v.TakenAt = t
		return v, true
	}
	if !p.valid || t-p.view.TakenAt >= p.maxAge {
		v := p.capture(t)
		v.TakenAt = t
		p.view = v
		p.valid = true
		return v, true
	}
	return p.view, false
}

// MaxAge implements SnapshotProvider.
func (p *CachedSnapshotProvider) MaxAge() model.Time { return p.maxAge }

// SetMaxAge reconfigures the staleness bound. Changing it invalidates
// the cached view (the legacy Federation.SetStaleness semantics, which
// this provider now implements); setting the current value is a no-op.
func (p *CachedSnapshotProvider) SetMaxAge(maxAge model.Time) {
	if maxAge < 0 {
		maxAge = 0
	}
	if maxAge != p.maxAge {
		p.maxAge = maxAge
		p.valid = false
		p.view = View{}
	}
}

// Cached returns the live cached view, if any — the checkpoint export
// path.
func (p *CachedSnapshotProvider) Cached() (View, bool) { return p.view, p.valid }

// Prime installs a cached view — the checkpoint restore path.
func (p *CachedSnapshotProvider) Prime(v View) {
	p.view = v
	p.valid = true
}
