package engine

import (
	"encoding/json"
	"fmt"

	"repro/internal/ctrl"
	"repro/internal/metrics"
	"repro/internal/model"
)

// This file is the single-cluster admission gate: an optional
// internal/ctrl control plane in front of Feed. When installed, fed
// jobs wait in its queue for their release instants and only admitted
// jobs are injected into the running schedule — rejected ones never
// reach it, deferred ones enter at the instant the policy names. With
// AlwaysAdmit and staleness 0 the gated run's decision trace is
// byte-identical to the ungated engine's (TestGateDifferential); an
// ungated engine never touches the queue.

// SetAdmission installs (or, with a nil spec, removes) an admission
// gate. The gate observes the engine through a bounded-staleness
// snapshot provider built from spec.Staleness — admission decisions at
// instant t act on a load view at most that old. Configure it on a
// fresh engine, before feeding or stepping: installing a gate mid-run
// would strand already-injected jobs outside its accounting.
func (e *Engine) SetAdmission(spec *ctrl.PolicySpec) error {
	if spec == nil {
		e.plane = nil
		e.admission = nil
		e.gateProvider = nil
		return nil
	}
	policy, err := spec.Build()
	if err != nil {
		return err
	}
	cp := *spec
	e.admission = &cp
	e.gateProvider = ctrl.NewCachedSnapshotProvider(e.captureLoad, spec.Staleness)
	e.plane = ctrl.NewPlane(policy, e.gateProvider, len(e.s.Instance().Orgs))
	return nil
}

// Admission returns the installed admission spec, or nil when the gate
// is off.
func (e *Engine) Admission() *ctrl.PolicySpec { return e.admission }

// AdmissionStats returns the gate's per-organization admission
// accounting, or nil when the gate is off.
func (e *Engine) AdmissionStats() *metrics.AdmissionStats {
	if e.plane == nil {
		return nil
	}
	return e.plane.Stats()
}

// captureLoad is the engine's ctrl.CaptureFunc: the standardized load
// signal queue-depth admission reads, captured fresh.
func (e *Engine) captureLoad(model.Time) ctrl.View {
	return ctrl.View{Load: ctrl.Load{
		Waiting:  e.Waiting(),
		Capacity: e.s.Instance().TotalCapacity(),
	}}
}

// gateSink is the engine's data-plane half: admitted jobs are injected
// into the running schedule at their admission instants, preserving
// the feed-at-release discipline (an admitted job's effective release
// is the instant it cleared admission).
type gateSink struct{ e *Engine }

// Route implements ctrl.Sink.
func (s gateSink) Route(job ctrl.Job, t model.Time, _ ctrl.View) error {
	_, err := s.e.inject(s.e.gateID[:0], []model.Job{{Org: job.Org, Size: job.Size, Release: t}})
	return err
}

// Refreshed implements ctrl.Sink. A single cluster has nothing to
// re-delegate on a fresh view; the refresh edge only matters to the
// federation.
func (gateSink) Refreshed(model.Time, ctrl.View) error { return nil }

// drainGate decides every queued job whose instant is at or before until.
// Control precedes data within an instant: the schedule is advanced
// only through t−1 before the plane acts at t, so a job admitted at t
// is already queued when the schedule processes instant t — exactly
// the state the ungated engine sees when the same job is fed before
// its release, which is what makes the AlwaysAdmit differential
// byte-identical. The observed view is likewise the instant-t-minus
// state: admission at t sees the backlog as t's dispatches begin, not
// after them.
func (e *Engine) drainGate(until model.Time) error {
	for {
		t, ok := e.plane.NextEventTime()
		if !ok || t > until {
			return nil
		}
		if t > e.now {
			e.advanceTo(t - 1)
		}
		if err := e.plane.Advance(t, gateSink{e}); err != nil {
			return err
		}
	}
}

// GateCheckpointVersion identifies the gated snapshot envelope layout.
const GateCheckpointVersion = 1

// gateView is the serialized snapshot-provider cache: the engine's
// observation payload is pure Load, so the view persists whole.
type gateView struct {
	TakenAt model.Time `json:"taken_at"`
	Load    ctrl.Load  `json:"load"`
}

// gatedCheckpoint is the gated engine's snapshot envelope: the control
// plane's state wrapped around the ordinary core checkpoint. The
// "gate_version" key distinguishes it from a bare core.Checkpoint, with
// which it shares no key (Restore decodes both through one document).
type gatedCheckpoint struct {
	GateVersion int              `json:"gate_version"`
	Admission   *ctrl.PolicySpec `json:"admission"`
	Ctrl        json.RawMessage  `json:"ctrl"`
	View        *gateView        `json:"view,omitempty"`
	Core        json.RawMessage  `json:"core"`
}

// snapshotGated wraps the core checkpoint in the control-plane
// envelope.
func (e *Engine) snapshotGated(core []byte) ([]byte, error) {
	st, err := e.plane.State()
	if err != nil {
		return nil, fmt.Errorf("engine: snapshot gate: %w", err)
	}
	cp := gatedCheckpoint{
		GateVersion: GateCheckpointVersion,
		Admission:   e.admission,
		Ctrl:        st,
		Core:        core,
	}
	if v, ok := e.gateProvider.Cached(); ok {
		cp.View = &gateView{TakenAt: v.TakenAt, Load: v.Load}
	}
	return json.Marshal(cp)
}

// restoreGate re-installs the gate a gated Snapshot captured on the
// freshly restored core run.
func (e *Engine) restoreGate(cp *gatedCheckpoint) error {
	if err := e.SetAdmission(cp.Admission); err != nil {
		return err
	}
	if err := e.plane.RestoreState(cp.Ctrl); err != nil {
		return err
	}
	if cp.View != nil {
		e.gateProvider.Prime(ctrl.View{TakenAt: cp.View.TakenAt, Load: cp.View.Load})
	}
	return nil
}
