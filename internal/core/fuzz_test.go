package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

// fuzzInstance decodes an instance: the first byte picks 2 to 5
// organizations and, by its high bit, related machines — identical ones,
// where the set keeps a release-start ledger, when it is clear — the
// next one per organization its 1 to 3 machines (on related machines, of
// speed 1 or 2 when that byte's high bit is set), and each following
// triple one job — organization, release in 0..19, size in 1..8 — up to
// 24 jobs.
func fuzzInstance(data []byte) *model.Instance {
	if len(data) == 0 {
		data = []byte{0}
	}
	k, related := 2+int(data[0]&0x7f)%4, data[0]&0x80 != 0
	data = data[1:]
	orgs := make([]model.Org, k)
	for i := range orgs {
		var b byte
		if i < len(data) {
			b = data[i]
		}
		o := model.Org{Name: string(rune('A' + i)), Machines: 1 + int(b)%3}
		if related && b&0x80 != 0 {
			o.Speeds = make([]int, o.Machines)
			for m := range o.Speeds {
				o.Speeds[m] = 1 + int(b>>(4+m))&1
			}
		}
		orgs[i] = o
	}
	data = data[min(k, len(data)):]
	var jobs []model.Job
	for ; len(data) >= 3 && len(jobs) < 24; data = data[3:] {
		jobs = append(jobs, model.Job{Org: int(data[0]) % k, Release: model.Time(data[1] % 20), Size: model.Time(1 + data[2]%8)})
	}
	return model.MustNewInstance(orgs, jobs)
}

// cloneInstance copies an instance, so two steppers own one each.
func cloneInstance(in *model.Instance) *model.Instance {
	out := &model.Instance{Orgs: slices.Clone(in.Orgs), Jobs: slices.Clone(in.Jobs)}
	for i := range out.Orgs {
		out.Orgs[i].Speeds = slices.Clone(in.Orgs[i].Speeds)
	}
	return out
}

// FuzzStepperModes holds the touched-set loop to the oracle under
// arbitrary use, for the configuration of diffFamilies that the input's
// family byte picks (modulo their number) — REF (Rotate off and on),
// RAND (both samplers), NBS or a policy plug: a byte-coded instance
// (fuzzInstance) and a byte-coded stream of operations — advance to a
// later instant, inject a batch of jobs released at or after the clock,
// withdraw a job (any, or one queued in the decision schedule that a
// slot in free flow already runs), capture and restore both runs
// through JSON (where it stands, or first at the next event, inside a
// free-flow period). A third run, on the loop, takes every operation but
// the restores. After every operation the
// three report the same starts, NextEventTime and φ bits; after every
// advance, before FinishAt and after it, the same NextEventTime, and
// after FinishAt byte-equal captures — the decision RNG's position and
// a stateful policy's capture included; and a restored run re-captures
// the bytes it was restored from. The first run's keys and slot bitsets
// hold checkKeysMatchRebuild after every step, FinishAt and restore.
//
// Each (instance, operations) seed is committed once per family, so
// the plain test runs every family on every seed. The sixth seed
// round-trips release-start schedules: at 6, A's singleton has run its
// second job from 3, not from its release, so its compact entry
// carries a finished-work offset, and B's carries none. In the seventh,
// at 4, A's singleton runs as many jobs as its release-start schedule,
// but its second from 3, not 1: a capture that compacts on the count
// alone restores a run that diverges from the unrestored one. The
// fourth and fifth seeds fail scratch mutations of free flow: a
// materialization that drops a running release-start job (A's first job
// runs from its release when A's second one overflows A's singleton),
// and a re-entry that ignores a withdrawn job still running in the
// ledger (A's third job, withdrawn while it waits, runs in the ledger to
// 8, past A's singleton going idle at 6).
func FuzzStepperModes(f *testing.F) {
	for _, seed := range [][2][]byte{
		{[]byte{1, 0, 1, 2, 0, 0, 5, 1, 0, 3, 2, 5, 7, 0, 5, 2}, []byte{4, 8, 1, 12, 2, 60, 3, 4, 64}},
		{[]byte{0x83, 0x81, 0x92, 2, 0, 1, 7, 1, 1, 3, 2, 1, 6, 3, 9, 1, 4, 4, 4, 0, 12, 5}, []byte{0, 0, 5, 9, 6, 3, 14, 2, 62, 60, 7, 11}},
		{[]byte{2, 0, 0, 0, 0, 0, 7, 1, 0, 7, 2, 0, 7, 0, 3, 1}, []byte{60, 1, 5, 0, 13, 3, 2, 9, 60}},
		{[]byte{0, 0, 0, 0, 0, 3, 0, 2, 0}, []byte{8}},
		{[]byte{0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 7}, []byte{0, 18, 20}},
		{[]byte{0, 0, 0, 0, 0, 2, 0, 1, 1, 1, 0, 0}, []byte{20, 3, 20, 3}},
		{[]byte{0, 0, 0, 0, 0, 2, 0, 1, 4, 1, 0, 0}, []byte{12, 3, 60, 3}},
	} {
		for family := range diffFamilies(6) {
			f.Add(uint8(family), seed[0], seed[1])
		}
	}
	f.Fuzz(func(t *testing.T, family uint8, instance, ops []byte) {
		base := fuzzInstance(instance)
		if len(ops) > 64 {
			ops = ops[:64]
		}
		families := diffFamilies(6)
		alg := families[int(family)%len(families)]
		// The loop, the oracle, and the loop never restored.
		runs := [3]Stepper{alg.NewStepper(cloneInstance(base), 3), oracleOf(alg, cloneInstance(base), 3), alg.NewStepper(cloneInstance(base), 3)}
		var now model.Time
		check := func(op string) {
			t.Helper()
			a := runs[0].ResultAt(now)
			for i, other := range []string{"oracle", "unrestored run"} {
				b := runs[i+1].ResultAt(now)
				assertSameResult(t, alg.Name()+" after "+op+" against the "+other, b, a)
				for u := range a.Phi {
					if math.Float64bits(a.Phi[u]) != math.Float64bits(b.Phi[u]) {
						t.Fatalf("%s after %s: φ[%d] %v, %s %v", alg.Name(), op, u, a.Phi[u], other, b.Phi[u])
					}
				}
				if x, y := runs[0].NextEventTime(), runs[i+1].NextEventTime(); x != y {
					t.Fatalf("%s after %s: next event %d, %s %d", alg.Name(), op, x, other, y)
				}
			}
		}
		capture := func(op string) [3][]byte {
			t.Helper()
			var out [3][]byte
			for i, st := range runs {
				cp, err := st.Capture(now)
				if err != nil {
					t.Fatal(err)
				}
				if out[i], err = json.Marshal(cp); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i < len(out); i++ {
				if !bytes.Equal(out[0], out[i]) {
					t.Fatalf("%s after %s: captures differ:\n%s\nrun %d:\n%s", alg.Name(), op, out[0], i, out[i])
				}
			}
			return out
		}
		for i, b := range ops {
			arg := int(b >> 2)
			switch b % 4 {
			case 0: // advance 1 to 15 instants, or 64
				until := now + 1 + model.Time(arg%15)
				if arg%16 == 15 {
					until = now + 64
				}
				for runs[0].StepNext(until) {
					checkKeysMatchRebuild(t, setOf(runs[0]))
				}
				for _, st := range runs[1:] {
					for st.StepNext(until) {
					}
					if x, y := runs[0].NextEventTime(), st.NextEventTime(); x != y {
						t.Fatalf("%s: drained to %d, next event %d, other run %d", alg.Name(), until, x, y)
					}
				}
				for _, st := range runs {
					st.FinishAt(until)
				}
				checkKeysMatchRebuild(t, setOf(runs[0]))
				now = until
				check("an advance")
				capture("an advance")
			case 1: // a batch of 1 to 3 jobs
				r := rand.New(rand.NewSource(int64(i)<<8 | int64(b)))
				batch := make([]model.Job, 1+arg%3)
				for j := range batch {
					batch[j] = model.Job{Org: r.Intn(len(base.Orgs)), Release: now + model.Time(r.Intn(5)), Size: model.Time(1 + r.Intn(8))}
				}
				for _, st := range runs {
					inst := st.Instance()
					ids := make([]int, len(batch))
					for j, job := range batch {
						job.ID = len(inst.Jobs)
						ids[j] = job.ID
						inst.Jobs = append(inst.Jobs, job)
					}
					if err := st.Inject(ids); err != nil {
						t.Fatal(err)
					}
				}
				check("a batch")
			case 2: // withdraw a job, which may be refused
				jobs := len(runs[0].Instance().Jobs)
				if jobs == 0 {
					continue
				}
				id := (arg >> 1) % jobs
				if arg&1 == 1 {
					// One waiting in the decision schedule, released to a
					// slot in free flow, which started it then.
					s := setOf(runs[0])
					var inFlow model.Coalition
					for _, c := range s.slots {
						if flowing(c) {
							inFlow |= c.Coalition()
						}
					}
					var started []int
					for _, id := range runs[0].Queued(nil) {
						if j := runs[0].Instance().Jobs[id]; j.Release <= now && inFlow.Has(j.Org) {
							started = append(started, id)
						}
					}
					if len(started) == 0 {
						continue
					}
					id = started[(arg>>1)%len(started)]
				}
				if x, y, z := runs[0].Withdraw(id), runs[1].Withdraw(id), runs[2].Withdraw(id); (x == nil) != (y == nil) || (x == nil) != (z == nil) {
					t.Fatalf("%s: withdraw %d: %v, oracle %v, unrestored run %v", alg.Name(), id, x, y, z)
				}
				check("a withdrawal")
			case 3: // capture, restore both through JSON
				if next := runs[0].NextEventTime(); arg&1 == 1 && next != sim.MaxTime {
					// At the next event: a release into slots in free flow,
					// or a completion inside a free-flow period.
					for _, st := range runs {
						for st.StepNext(next) {
						}
						st.FinishAt(next)
					}
					checkKeysMatchRebuild(t, setOf(runs[0]))
					now = next
					check("an advance to the next event")
				}
				before := capture("a capture")
				for j, data := range before[:2] {
					var cp Checkpoint
					if err := json.Unmarshal(data, &cp); err != nil {
						t.Fatal(err)
					}
					st, err := alg.RestoreStepper(&cp)
					if err != nil {
						t.Fatal(err)
					}
					if j == 1 {
						st = newOracle(setOf(st))
					}
					runs[j] = st
				}
				checkKeysMatchRebuild(t, setOf(runs[0]))
				check("a restore")
				if after := capture("a restore"); !bytes.Equal(after[0], before[0]) {
					t.Fatalf("%s: a restored run re-captures\n%s\nnot\n%s", alg.Name(), after[0], before[0])
				}
			}
		}
	})
}
