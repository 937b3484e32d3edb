package fed

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/engine"
	"repro/internal/model"
)

// CheckpointVersion identifies the serialized federation checkpoint
// layout, the one Restore reads, control block included. Member engine
// snapshots carry their own core.CheckpointVersion. Each fact is written
// once: organization names, the sequence counter, the ledger's placement
// and accounting columns and all of a decision but its cluster are the
// members' to say, and a cached exchange stores its summaries'
// observations and the instant it observed — the members' clock when it
// was taken — not their cluster, capacities or Σ ψ. The decision order's
// instants never decrease; each Step's chunk of it is by instant, then
// member (Federation.Step). Version 8 dropped the control block's own
// version and policy keys; Restore reads a version-7 document through
// the same decode, which ignores them. A document of any other version
// is refused: a change of layout may keep reading the one before it, and
// the next re-anchor retires that reader with its fixtures (DESIGN.md
// §7.1).
const CheckpointVersion = 8

// Checkpoint is the complete serializable state of a federation: the
// routing layer (pending queue, the order members' decisions were
// logged in, the ledger's history) plus one embedded engine snapshot per
// member. Like engine checkpoints, it carries only dynamic state —
// restoring requires the same static configuration (organization
// universe, cluster specs, delegation policy) that captured it.
type Checkpoint struct {
	Version int        `json:"version"`
	Policy  string     `json:"policy"`
	Seed    int64      `json:"seed"`
	Now     model.Time `json:"now"`
	Pending []Pending  `json:"pending,omitempty"`
	// Order is the decision log as each line's executing cluster: the
	// i-th c in it stands for the i-th line of member c's own log.
	Order   []int              `json:"order,omitempty"`
	Ledger  *Ledger            `json:"ledger"`
	Members []MemberCheckpoint `json:"members"`

	// Summary-gossip staleness state: the knob itself and, when a
	// cached exchange snapshot is live, the snapshot, the instant it was
	// taken at (its age is counted from there) and the instant it
	// observed: the members' clock then, which every summary's Now
	// reports and FedREF and the decaying fairness policy read. A Step
	// takes an exchange at a release instant t with the members at t−1,
	// or at t when the federation already stood there, so the two
	// differ; the observed one is present whenever an exchange is (0 is
	// an instant). Restoring mid-gossip-period must route on the same
	// stale view an uninterrupted run would. The cached view lives in the
	// snapshot provider; it is persisted here (not in Ctrl) because only
	// the federation knows its payload type.
	Staleness model.Time  `json:"staleness,omitempty"`
	ExAt      model.Time  `json:"ex_at,omitempty"`
	ExNow     *model.Time `json:"ex_now,omitempty"`
	ExSums    []Summary   `json:"ex_sums,omitempty"`
	ExRouted  [][]int64   `json:"ex_routed,omitempty"`

	// Control-plane state: the admission spec that was installed and the
	// plane's dynamic state (the jobs parked on a deferred retry, the
	// token bucket's levels, admission counters). Both absent when the
	// plane is off.
	Admission *ctrl.PolicySpec `json:"admission,omitempty"`
	Ctrl      *ctrl.Checkpoint `json:"ctrl,omitempty"`
}

// MemberCheckpoint is one member cluster's state: identity, the
// local-ID→sequence and local-ID→origin mappings (−1 = migrated-away
// tombstone), and the engine's checkpoint, decoded with the document —
// the one record of the member's organizations and machine pool.
type MemberCheckpoint struct {
	Name     string           `json:"name"`
	SeqOf    []int64          `json:"seq_of,omitempty"`
	OriginOf []int            `json:"origin_of,omitempty"`
	Engine   *core.Checkpoint `json:"engine"`
}

// Snapshot serializes the federation's complete deterministic state as
// JSON. Restoring it — in this process or another — resumes the run
// byte-identically: same future routing, same decisions, same ψ.
func (f *Federation) Snapshot() ([]byte, error) {
	f.sortPending() // checkpoints always carry the canonical order
	cp := Checkpoint{
		Version:   CheckpointVersion,
		Policy:    f.policy.Name(),
		Seed:      f.seed,
		Now:       f.Now(),
		Pending:   f.pending,
		Order:     make([]int, len(f.decs)),
		Ledger:    f.Ledger(),
		Staleness: f.provider.MaxAge(),
		Admission: f.admission,
	}
	for i, d := range f.decs {
		cp.Order[i] = d.Cluster
	}
	if v, ok := f.provider.Cached(); ok {
		ex := v.Payload.(*exchange)
		cp.ExAt = v.TakenAt
		cp.ExNow = &ex.Sums[0].Now
		cp.ExSums = ex.Sums
		cp.ExRouted = ex.Routed
	}
	if f.plane != nil {
		cp.Ctrl = f.plane.State()
	}
	for i, m := range f.members {
		snap, err := m.eng.Capture()
		if err != nil {
			return nil, fmt.Errorf("fed: snapshot cluster %d (%s): %w", i, m.name, err)
		}
		cp.Members = append(cp.Members, MemberCheckpoint{
			Name:     m.name,
			SeqOf:    m.seqOf,
			OriginOf: m.originOf,
			Engine:   snap,
		})
	}
	return json.Marshal(cp)
}

// Restore rebuilds a federation from a Snapshot. The static
// configuration — organization universe, cluster count/names/machine
// grids, per-cluster algorithms and the delegation policy — must match
// the one that captured the snapshot.
func Restore(orgs []string, specs []ClusterSpec, policy Policy, data []byte) (*Federation, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("fed: restore: %w", err)
	}
	if v := cp.Version; v != CheckpointVersion && v != CheckpointVersion-1 {
		return nil, fmt.Errorf("fed: restore: checkpoint version %d, want %d or %d", v, CheckpointVersion-1, CheckpointVersion)
	}
	if policy == nil {
		return nil, fmt.Errorf("fed: restore: nil delegation policy")
	}
	if cp.Policy != policy.Name() {
		return nil, fmt.Errorf("fed: restore: checkpoint routed by %q, federation configured with %q", cp.Policy, policy.Name())
	}
	if err := checkMembers(len(specs)); err != nil {
		return nil, fmt.Errorf("fed: restore: %w", err)
	}
	if len(cp.Members) != len(specs) {
		return nil, fmt.Errorf("fed: restore: checkpoint has %d clusters, configuration %d", len(cp.Members), len(specs))
	}
	if err := cp.Ledger.validate(len(specs)); err != nil {
		return nil, fmt.Errorf("fed: restore: %w", err)
	}
	// History is read; placement is replayed from the members below.
	ledger := newLedger(len(specs), len(orgs))
	ledger.Submitted, ledger.Migrated, ledger.MigratedWork = cp.Ledger.Submitted, cp.Ledger.Migrated, cp.Ledger.MigratedWork
	for _, row := range ledger.Migrated {
		for _, n := range row {
			ledger.Migrations += n
		}
	}
	f := &Federation{
		orgs:    append([]string(nil), orgs...),
		policy:  policy,
		routing: resolve(policy),
		seed:    cp.Seed,
		pending: cp.Pending,
		ledger:  ledger,
	}
	f.sink = fedSink{f: f}
	f.provider = ctrl.NewCachedSnapshotProvider(f.captureExchange, cp.Staleness)
	if cp.Admission != nil {
		if err := f.SetAdmission(cp.Admission); err != nil {
			return nil, fmt.Errorf("fed: restore: %w", err)
		}
		if cp.Ctrl == nil {
			return nil, fmt.Errorf("fed: restore: checkpoint names admission policy %q but carries no control-plane state", cp.Admission.Policy)
		}
		if err := f.plane.RestoreState(cp.Ctrl); err != nil {
			return nil, fmt.Errorf("fed: restore: %w", err)
		}
		// Releases enter the plane at their instant and a deferral lands
		// past it, so a Step leaves nothing queued at or before its clock;
		// an earlier instant would step the members backwards.
		if t, ok := f.plane.NextEventTime(); ok && t <= cp.Now {
			return nil, fmt.Errorf("fed: restore: control queue holds a job for instant %d, not after the checkpoint's clock %d", t, cp.Now)
		}
	} else if cp.Ctrl != nil {
		return nil, fmt.Errorf("fed: restore: checkpoint carries control-plane state but no admission spec")
	}
	for i, spec := range specs {
		mc := cp.Members[i]
		if spec.Name != mc.Name {
			return nil, fmt.Errorf("fed: restore: cluster %d is %q in checkpoint, %q in configuration", i, mc.Name, spec.Name)
		}
		if spec.Alg == nil {
			return nil, fmt.Errorf("fed: restore: cluster %d (%s) has no algorithm", i, spec.Name)
		}
		eng, err := engine.Resume(spec.Alg, mc.Engine)
		if err != nil {
			return nil, fmt.Errorf("fed: restore cluster %d (%s): %w", i, spec.Name, err)
		}
		// The configuration owns each member's organizations and machine
		// pool: hold the restored instance itself to what New would build.
		got := eng.Instance().Orgs
		same := len(got) == len(orgs) && len(spec.Machines) == len(orgs)
		for o := 0; same && o < len(got); o++ {
			same = got[o].Name == orgs[o] && got[o].Machines == spec.Machines[o] && len(got[o].Speeds) == 0
		}
		if !same {
			return nil, fmt.Errorf("fed: restore: cluster %d (%s) snapshot runs organizations %+v, configuration %v with machines %v",
				i, spec.Name, got, orgs, spec.Machines)
		}
		if eng.Now() != cp.Now {
			// Members move in lockstep: Step leaves every engine at the
			// federation's clock, and the next one starts from there.
			return nil, fmt.Errorf("fed: restore: cluster %d (%s) stands at instant %d, the federation at %d", i, spec.Name, eng.Now(), cp.Now)
		}
		if got := len(eng.Instance().Jobs); len(mc.SeqOf) != got || len(mc.OriginOf) != got {
			return nil, fmt.Errorf("fed: restore: cluster %d (%s) has %d/%d sequence/origin mappings for %d jobs",
				i, spec.Name, len(mc.SeqOf), len(mc.OriginOf), got)
		}
		for id, origin := range mc.OriginOf {
			if origin >= len(specs) || (origin < 0 && mc.SeqOf[id] >= 0) || (origin >= 0 && mc.SeqOf[id] < 0) {
				return nil, fmt.Errorf("fed: restore: cluster %d (%s) job %d has inconsistent origin %d for sequence %d",
					i, spec.Name, id, origin, mc.SeqOf[id])
			}
			if origin >= 0 {
				ledger.route(origin, i, int64(eng.Instance().Jobs[id].Size))
			}
		}
		f.members = append(f.members, &Member{name: mc.Name, eng: eng, seqOf: mc.SeqOf, originOf: mc.OriginOf, orgCapacity: orgCapacities(eng.Instance())})
	}
	if len(cp.ExSums) > 0 {
		if len(cp.ExSums) != len(specs) {
			return nil, fmt.Errorf("fed: restore: exchange snapshot has %d summaries for %d clusters",
				len(cp.ExSums), len(specs))
		}
		if cp.ExNow == nil {
			return nil, fmt.Errorf("fed: restore: a cached exchange without the instant it observed")
		}
		if seen := *cp.ExNow; seen < 0 || seen < cp.ExAt-1 || seen > cp.ExAt {
			return nil, fmt.Errorf("fed: restore: an exchange taken at %d observed instant %d, not the members' clock then", cp.ExAt, seen)
		}
		// Policies index the per-organization vectors without looking:
		// hold each summary to the shape summaries() produces. What a
		// summary repeats — its cluster, the exchange instant, the
		// configured capacities, Σ ψ — is filled in, not read: a stored
		// capacity of 0 once sent every later job to the other member.
		for c := range cp.ExSums {
			s := &cp.ExSums[c]
			if n := len(orgs); len(s.Psi) != n || (len(s.Phi) != 0 && len(s.Phi) != n) {
				return nil, fmt.Errorf("fed: restore: exchange summary %d has %d/%d psi/phi entries for %d organizations",
					c, len(s.Psi), len(s.Phi), n)
			}
			s.Now = *cp.ExNow
			f.fillConfigured(s, c)
		}
		// The routed-work matrix is captured only for ledger-aware
		// policies; the policy name match above guarantees the restoring
		// policy reads exactly what the capturing one did.
		if f.routing.ledger != nil || len(cp.ExRouted) > 0 {
			if len(cp.ExRouted) != len(specs) {
				return nil, fmt.Errorf("fed: restore: exchange routed-work is %d×? for %d clusters",
					len(cp.ExRouted), len(specs))
			}
			for c := range cp.ExRouted {
				if len(cp.ExRouted[c]) != len(specs) {
					return nil, fmt.Errorf("fed: restore: exchange routed-work row %d truncated", c)
				}
			}
		}
		// Re-prime the provider's cache: a run restored mid-staleness-
		// period keeps deciding on the same aged view an uninterrupted
		// run would. The Load column is a pure function of the summaries,
		// so it is recomputed rather than persisted.
		f.provider.Prime(ctrl.View{
			TakenAt: cp.ExAt,
			Load:    loadOf(cp.ExSums),
			Payload: &exchange{Sums: cp.ExSums, Routed: cp.ExRouted},
		})
	}
	// A pending job is released into the same code a submitted one is.
	for _, p := range f.pending {
		if err := f.checkJob(SourceJob{Cluster: p.Cluster, Org: p.Org, Size: p.Size, Release: p.Release}); err != nil {
			return nil, fmt.Errorf("fed: restore: pending job %d: %w", p.Seq, err)
		}
	}
	// The decision log is the members' logs, interleaved in the recorded
	// order, whose instants never decrease (Federation.Step).
	read := make([]int, len(specs))
	for _, c := range cp.Order {
		if c < 0 || c >= len(specs) || read[c] == len(f.members[c].eng.Decisions()) {
			return nil, fmt.Errorf("fed: restore: decision order names cluster %d past the end of its log", c)
		}
		m := f.members[c]
		s := m.eng.Decisions()[read[c]]
		read[c]++
		if n := len(f.decs); n > 0 && s.At < f.decs[n-1].At {
			return nil, fmt.Errorf("fed: restore: decision order puts cluster %d's start at %d after a start at %d", c, s.At, f.decs[n-1].At)
		}
		f.decs = append(f.decs, Decision{Seq: m.seqOf[s.Job], Org: s.Org, Cluster: c, Machine: s.Machine, At: s.At})
	}
	for c, m := range f.members {
		if n := len(m.eng.Decisions()); read[c] != n {
			return nil, fmt.Errorf("fed: restore: decision order holds %d of cluster %d's %d decisions", read[c], c, n)
		}
	}
	f.reported = len(f.decs)
	// What was assembled from the document's parts obeys the law a run does.
	if err := f.CheckConservation(); err != nil {
		return nil, fmt.Errorf("fed: restore: %w", err)
	}
	return f, nil
}
