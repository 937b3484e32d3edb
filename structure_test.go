// Structural rules: each concept has one implementation, and what a
// checkpoint rebuilds is stored once. Every rule reads the module as
// loadModule type-checks it — declarations, uses, struct tags, imports
// — so a comment cannot trip it, and every rule fails closed: when a
// package, type, field or function it anchors on is gone, the rule
// fails and names the anchor, so a rename cannot make it pass vacuously.
package repro_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestStructure(t *testing.T) {
	m := loadModule(t)
	for _, r := range []struct {
		name string
		rule func(*testing.T, *module)
	}{
		{"Daemon links no experiment code", daemonLinksNoExperimentCode},
		{"One copy of each fact", oneCopyOfEachFact},
		{"One admission gate", oneAdmissionGate},
		{"One routing path", oneRoutingPath},
		{"One stepping mode", oneSteppingMode},
		{"Free flow stays in the set", freeFlowStaysInTheSet},
		{"One version check per format", oneVersionCheckPerFormat},
		{"One decode per checkpoint", oneDecodePerCheckpoint},
		{"One batch contract", oneBatchContract},
		{"Design doc size", designDocSize},
	} {
		t.Run(r.name, func(t *testing.T) { r.rule(t, m) })
	}
}

// daemonLinksNoExperimentCode: fairschedd resolves algorithm names with
// core.AlgorithmByName. The experiment harness (internal/exp) and the
// workload generators and chart renderers it pulls in (gen, vis) serve
// paperexp and the examples; linked into the daemon they are code a
// server ships and never runs. The daemon's import closure holds none of
// them.
func daemonLinksNoExperimentCode(t *testing.T, m *module) {
	banned := map[*types.Package]bool{}
	for _, path := range []string{"internal/exp", "internal/gen", "internal/vis"} {
		banned[m.pkg(t, path)] = true
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package, via []string)
	walk = func(p *types.Package, via []string) {
		if seen[p] {
			return
		}
		seen[p] = true
		via = append(slices.Clip(via), p.Path())
		if banned[p] {
			t.Errorf("fairschedd links %s", strings.Join(via, " imports "))
		}
		for _, q := range p.Imports() {
			if strings.HasPrefix(q.Path(), "repro/") {
				walk(q, via)
			}
		}
	}
	walk(m.pkg(t, "cmd/fairschedd"), nil)
}

// derivedKeys lists, per struct type or per package (for every struct
// the package declares), the JSON keys of facts a checkpoint rebuilds:
// the federation ledger's placement and accounting columns, a sequence
// counter or an organization list next to the members'; the control
// block's job ID and class and its queue's and plane's counters (the
// list is written in verdict order and says all four); the cluster,
// instant, capacities and Σ ψ of a cached exchange summary, filled in at
// restore (its psi, executed and the other observations stay); a job's
// ID (its position in the list) and a start's organization (its job's);
// a running entry's end (its start plus ⌈size/speed⌉) and fold instant
// (the accounts are exact at every instant), and machine-owner accounts
// (the decision schedule's log implies them, and a hypothetical schedule
// keeps none).
var derivedKeys = map[string][]string{
	"fed.Ledger":  {"clusters", "orgs", "routed", "routed_work", "fed", "migrations", "psi", "value", "executed"},
	"fed.Summary": {"cluster", "now", "capacity", "org_capacity", "value"},
	"model.Job":   {"id"},
	"sim.Start":   {"org"},
	"fed":         {"next_seq", "orgs"},
	"ctrl":        {"id", "prio", "next_id", "next_seq"},
	"sim":         {"end", "acc_from", "own_acct"},
}

// reachedKeys are derived keys no struct a checkpoint reaches carries,
// whatever package declares it.
var reachedKeys = []string{"id", "prio", "next_id", "next_seq", "end", "acc_from", "own_acct"}

// freeFlowKeyParts are what no JSON key of a struct sim or core declares
// contains: the release-start ledger and a slot's free-flow offset are
// derived from the released jobs and the captured accounts and rebuilt
// on restore (a schedule written as its release-start schedule stores
// its accounts' offset in org_acct, in place of the accounts).
var freeFlowKeyParts = []string{"flow", "release_start", "ledger", "offset"}

// oneCopyOfEachFact: a checkpoint stores what is history and rebuilds
// the rest. No struct that fed, ctrl, sim or core declares, or that a
// federation checkpoint, a control block or a cluster state reaches,
// carries a derivedKeys, reachedKeys or freeFlowKeyParts tag. The
// release-start ledger (sim.releaseStarts) and a schedule set (its
// keys and slot bitsets rebuilt by rekeyAll from the cluster states)
// carry no JSON tag at all. A cluster's queues serve every organization
// of the instance and the driver of the clusters on them releases them,
// so no second, coalition-narrowed queue mode (`private`, `earliest`,
// `newQueues`) comes back in sim; and fed keeps no sequence counter
// (`nextSeq`): restore rebuilds it from the members.
func oneCopyOfEachFact(t *testing.T, m *module) {
	structs := map[*types.Struct]*types.TypeName{} // -> the named type declaring it
	for _, root := range []string{"fed.Checkpoint", "ctrl.Checkpoint", "sim.ClusterState"} {
		structsOf(m.lookup(t, root).Type(), nil, structs)
	}
	reached := maps.Clone(structs)
	for _, p := range []string{"fed", "ctrl", "sim", "core"} {
		m.pkg(t, "internal/"+p)
		for _, obj := range m.info[internal+p].Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				structsOf(tn.Type(), nil, structs)
			}
		}
		for _, tv := range m.info[internal+p].Types { // anonymous structs too
			structsOf(tv.Type, nil, structs)
		}
	}
	for name := range derivedKeys {
		if strings.Contains(name, ".") {
			m.lookup(t, name)
		}
	}
	untagged := map[*types.TypeName]bool{}
	for _, anchor := range []string{"sim.releaseStarts", "core.schedSet"} {
		untagged[m.lookup(t, anchor).(*types.TypeName)] = true
	}
	found := map[token.Pos]string{}
	for s, owner := range structs {
		for i := 0; i < s.NumFields(); i++ {
			f := s.Field(i)
			key, tagged := jsonKey(s.Tag(i))
			if !tagged {
				continue
			}
			if untagged[owner] {
				found[f.Pos()] = owner.Name() + " carries a JSON tag"
				continue
			}
			pkg := strings.TrimPrefix(f.Pkg().Path(), internal)
			forbidden := derivedKeys[pkg]
			if owner != nil {
				forbidden = append(slices.Clip(forbidden), derivedKeys[strings.TrimPrefix(owner.Pkg().Path(), internal)+"."+owner.Name()]...)
			}
			if _, ok := reached[s]; ok {
				forbidden = append(slices.Clip(forbidden), reachedKeys...)
			}
			switch {
			case slices.Contains(forbidden, key):
				found[f.Pos()] = fmt.Sprintf("the derived key %q", key)
			case pkg == "sim" || pkg == "core":
				for _, part := range freeFlowKeyParts {
					if strings.Contains(key, part) {
						found[f.Pos()] = fmt.Sprintf("the free-flow key %q", key)
					}
				}
			}
		}
	}
	m.reportEach(t, found)
	m.forbidDeclarations(t, "sim", "private", "earliest", "newQueues")
	m.forbidDeclarations(t, "fed", "nextSeq")
}

// oneAdmissionGate: admission control is the federation's. A gated
// single session is a one-member federation, and an engine runs
// ungated: the engine's own gate — its control plane, cached load view,
// drain loop, sink and envelope version — does not come back in engine.
func oneAdmissionGate(t *testing.T, m *module) {
	for _, anchor := range []string{"ctrl.NewPlane", "ctrl.CachedSnapshotProvider"} {
		m.report(t, m.uses(t, "engine", m.lookup(t, anchor)), "engine uses "+anchor)
	}
	m.forbidDeclarations(t, "engine", "drainGate", "gateSink", "GateCheckpointVersion")
}

// oneRoutingPath: a federation resolves its delegation policy once, in
// New and Restore. A job routes by a Scorer's score vector or by one
// Route or RouteLedger call, and a migration pass scans the jobs its
// members hold queued (engine.Engine.Queued). The per-call policy probes
// (scorerOf, usesLedger, the MigratingPolicy interface), the sink's
// per-(organization, origin) target memo and the started-job column that
// walked each member's history do not come back in fed.
func oneRoutingPath(t *testing.T, m *module) {
	m.forbidDeclarations(t, "fed", "scorerOf", "usesLedger", "MigratingPolicy", "memo")
	var bad []token.Pos
	for id, obj := range m.info[internal+"fed"].Defs {
		if v, ok := obj.(*types.Var); ok && v.Name() == "started" && types.Identical(v.Type(), types.NewSlice(types.Typ[types.Bool])) {
			bad = append(bad, id.Pos())
		}
	}
	m.report(t, bad, "fed declares a started []bool column")
}

// oneSteppingMode: every schedule set — REF, RAND, NBS and each one-slot
// policy baseline — steps the one touched-set loop of
// internal/core/schedset.go. The reference stepping, which advances
// every slot to every event, is the differential tests' oracle
// (internal/core/oracle_test.go): core declares no scan mode (a `scan`
// field or anything else of that name), reads no RefOptions.Driver, and
// no code sends a one-slot set down another path (a comparison of the
// length of a []*sim.Cluster with 1 or 2). RefDriver stays declared,
// inert, while bench/ names it; DriverScan is used only where
// ParseRefDriver returns it.
func oneSteppingMode(t *testing.T, m *module) {
	m.forbidDeclarations(t, "core", "scan")
	m.report(t, m.uses(t, "core", m.lookup(t, "core.RefOptions.Driver")), "core reads RefOptions.Driver")
	parse := m.decl(t, m.lookup(t, "core.ParseRefDriver"))
	var bad []token.Pos
	for _, pos := range m.uses(t, "core", m.lookup(t, "core.DriverScan")) {
		if pos < parse.Pos() || pos >= parse.End() {
			bad = append(bad, pos)
		}
	}
	m.report(t, bad, "core uses DriverScan outside ParseRefDriver")

	slots := types.NewSlice(types.NewPointer(m.lookup(t, "sim.Cluster").Type()))
	bad = nil
	for path, files := range m.files {
		info := m.info[path]
		isLen := func(e ast.Expr) bool {
			call, ok := ast.Unparen(e).(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return false
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			return ok && info.Uses[id] == types.Universe.Lookup("len") && types.Identical(info.TypeOf(call.Args[0]), slots)
		}
		oneOrTwo := func(e ast.Expr) bool {
			v := info.Types[e].Value
			return v != nil && (v.ExactString() == "1" || v.ExactString() == "2")
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if b, ok := n.(*ast.BinaryExpr); ok && b.Op.Precedence() == token.EQL.Precedence() && // a comparison
					(isLen(b.X) && oneOrTwo(b.Y) || isLen(b.Y) && oneOrTwo(b.X)) {
					bad = append(bad, b.Pos())
				}
				return true
			})
		}
	}
	m.report(t, bad, "a one-slot set takes another path")
}

// freeFlowStaysInTheSet: free flow is the schedule set's. Only core's
// schedSet knows which slots flow, and it reads a flowing slot's value
// through the ledger (sim.Cluster.FlowValueAt). sim.Cluster's value, ψ,
// waiting and completion reads and every View method read the cluster's
// own state and branch on no mode, so no View method reads the flow bit
// and the compiler inlines (*Cluster).ValueAt and Psi; the
// mutex-guarded checkpoint-order table (identityTable) does not come
// back in core — a nil order is slot order.
func freeFlowStaysInTheSet(t *testing.T, m *module) {
	view, flow := m.lookup(t, "sim.View"), m.lookup(t, "sim.Cluster.flow")
	var bad []token.Pos
	for _, f := range m.files[internal+"sim"] {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			recv := m.info[internal+"sim"].Defs[fn.Name].Type().(*types.Signature).Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if !types.Identical(recv, view.Type()) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && m.info[internal+"sim"].Uses[id] == flow {
					bad = append(bad, id.Pos())
				}
				return true
			})
		}
	}
	m.report(t, bad, "a View method reads sim.Cluster.flow")
	m.forbidDeclarations(t, "core", "identityTable")

	out, err := exec.Command("go", "build", "-gcflags=-m", "./internal/sim").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m ./internal/sim: %v\n%s", err, out)
	}
	for _, name := range []string{"ValueAt", "Psi"} {
		m.lookup(t, "sim.Cluster."+name)
		if !regexp.MustCompile(`(?m)can inline \(\*Cluster\)\.` + name + `( |$)`).Match(out) {
			t.Errorf("the compiler does not inline (*sim.Cluster).%s", name)
		}
	}
}

// oneVersionCheckPerFormat: each checkpoint format restores the one
// layout it writes (DESIGN.md §7.1), and the federation also the layout
// before it, so each has one version check, in its restore: core's in
// restoreStepper, which every RestoreStepper runs, and the federation's
// in fed.Restore, whose one read accepts both layouts. The control block
// is a typed part of the federation's document and has no version of its
// own. No other non-test function reads the Version field of
// core.Checkpoint or fed.Checkpoint through a selector — a second reader
// of a retired layout would — and each restore reads it once. (A capture
// writes it as a keyed composite-literal field, which is no selector.)
func oneVersionCheckPerFormat(t *testing.T, m *module) {
	for _, format := range []struct{ field, check string }{
		{"core.Checkpoint.Version", "core.restoreStepper"},
		{"fed.Checkpoint.Version", "fed.Restore"},
	} {
		field, check := m.lookup(t, format.field), m.decl(t, m.lookup(t, format.check))
		var outside []token.Pos
		read := 0
		for path, files := range m.files {
			for _, f := range files {
				ast.Inspect(f, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && origin(m.info[path].Uses[sel.Sel]) == field {
						if n.Pos() < check.Pos() || n.End() > check.End() {
							outside = append(outside, n.Pos())
						} else {
							read++
						}
					}
					return true
				})
			}
		}
		m.report(t, outside, "reads "+format.field+" outside "+format.check)
		if read != 1 {
			t.Errorf("%s is read %d times, want once, in %s", format.field, read, format.check)
		}
	}
}

// oneDecodePerCheckpoint: a checkpoint is one typed document, encoded
// once and decoded once. No struct a core checkpoint, a federation
// checkpoint or a cluster state reaches holds a json.RawMessage — a part
// that is re-encoded or re-decoded on its own, with a version or a codec
// of its own — so the control block, a token bucket's levels and a
// stateful policy's state are typed fields; ctrl declares no
// CheckpointVersion; and no method serializes a policy's state to bytes
// (StateJSON, CapturePolicyState).
func oneDecodePerCheckpoint(t *testing.T, m *module) {
	structs := map[*types.Struct]*types.TypeName{}
	for _, root := range []string{"core.Checkpoint", "fed.Checkpoint", "sim.ClusterState"} {
		structsOf(m.lookup(t, root).Type(), nil, structs)
	}
	found := map[token.Pos]string{}
	for s := range structs {
		for i := 0; i < s.NumFields(); i++ {
			if f := s.Field(i); strings.Contains(types.TypeString(f.Type(), nil), "encoding/json.RawMessage") {
				found[f.Pos()] = "a checkpoint reaches the json.RawMessage field " + f.Name()
			}
		}
	}
	for _, info := range m.info {
		for id, obj := range info.Defs {
			if fn, ok := obj.(*types.Func); ok && (fn.Name() == "StateJSON" || fn.Name() == "CapturePolicyState") {
				found[id.Pos()] = "declares " + fn.Name()
			}
		}
	}
	m.reportEach(t, found)
	m.forbidDeclarations(t, "ctrl", "CheckpointVersion")
}

// oneBatchContract: the paper defines one scheduling loop, and a batch
// run is that loop drained to a horizon. core.Run, a package-level
// function, drains any StepperAlgorithm's stepper, and StepperAlgorithm
// is core's only algorithm interface: core declares no Algorithm type
// and no method named Run on any type, interfaces included, so no
// per-algorithm "build a stepper, drain it" copy comes back.
func oneBatchContract(t *testing.T, m *module) {
	if fn, ok := m.lookup(t, "core.Run").(*types.Func); !ok || fn.Type().(*types.Signature).Recv() != nil {
		t.Errorf("anchor core.Run: not a package-level function")
	}
	found := map[token.Pos]string{}
	for id, obj := range m.info[internal+"core"].Defs {
		switch obj := obj.(type) {
		case *types.TypeName:
			if obj.Name() == "Algorithm" {
				found[id.Pos()] = "core declares an Algorithm type"
			}
		case *types.Func:
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil && obj.Name() == "Run" {
				found[id.Pos()] = "core declares a Run method on " + types.TypeString(recv.Type(), types.RelativeTo(obj.Pkg()))
			}
		}
	}
	m.reportEach(t, found)
}

// designDocSize: DESIGN.md stays at 850 lines or fewer.
func designDocSize(t *testing.T, _ *module) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatalf("anchor DESIGN.md: %v", err)
	}
	if n := bytes.Count(data, []byte("\n")); n > 850 {
		t.Errorf("DESIGN.md has %d lines, want at most 850", n)
	}
}

// structsOf adds to structs every struct type ty reaches through the
// module's named types, pointers, slices, arrays and maps, each mapped
// to the named type declaring it (owner until ty names one).
func structsOf(ty types.Type, owner *types.TypeName, structs map[*types.Struct]*types.TypeName) {
	switch ty := ty.(type) {
	case *types.Named:
		if ty.Obj().Pkg() != nil && strings.HasPrefix(ty.Obj().Pkg().Path(), "repro/") {
			structsOf(ty.Underlying(), ty.Obj(), structs)
		}
	case *types.Pointer:
		structsOf(ty.Elem(), owner, structs)
	case *types.Slice:
		structsOf(ty.Elem(), owner, structs)
	case *types.Array:
		structsOf(ty.Elem(), owner, structs)
	case *types.Map:
		structsOf(ty.Key(), owner, structs)
		structsOf(ty.Elem(), owner, structs)
	case *types.Struct:
		if _, ok := structs[ty]; ok {
			return
		}
		structs[ty] = owner
		for i := 0; i < ty.NumFields(); i++ {
			structsOf(ty.Field(i).Type(), owner, structs)
		}
	}
}

// internal is the import path prefix of the packages the rules name by
// their directory under internal/.
const internal = "repro/internal/"

// pkg returns the module package at dir, relative to the module root,
// failing t when there is none.
func (m *module) pkg(t *testing.T, dir string) *types.Package {
	t.Helper()
	p := m.checked["repro/"+dir]
	if p == nil {
		t.Fatalf("anchor %s: no such package", dir)
	}
	return p
}

// lookup returns what an anchor names — pkg.Name, or pkg.Type.Field or
// pkg.Type.Method, pkg a directory under internal/ — failing t when it
// names nothing.
func (m *module) lookup(t *testing.T, anchor string) types.Object {
	t.Helper()
	parts := strings.Split(anchor, ".")
	var obj types.Object
	if p := m.checked[internal+parts[0]]; p != nil && len(parts) <= 3 {
		obj = p.Scope().Lookup(parts[1])
		if obj != nil && len(parts) == 3 {
			obj, _, _ = types.LookupFieldOrMethod(types.NewPointer(obj.Type()), true, p, parts[2])
		}
	}
	if obj == nil {
		t.Fatalf("anchor %s: no such identifier", anchor)
	}
	return obj
}

// decl returns the declaration of a function the module declares.
func (m *module) decl(t *testing.T, fn types.Object) *ast.FuncDecl {
	t.Helper()
	for _, f := range m.files[fn.Pkg().Path()] {
		for _, d := range f.Decls {
			if d, ok := d.(*ast.FuncDecl); ok && m.info[fn.Pkg().Path()].Defs[d.Name] == fn {
				return d
			}
		}
	}
	t.Fatalf("anchor %s: no declaration", fn.Name())
	return nil
}

// uses returns where the non-test files of the package at
// internal/dir use obj.
func (m *module) uses(t *testing.T, dir string, obj types.Object) []token.Pos {
	t.Helper()
	m.pkg(t, "internal/"+dir)
	var at []token.Pos
	for id, used := range m.info[internal+dir].Uses {
		if origin(used) == obj {
			at = append(at, id.Pos())
		}
	}
	return at
}

// writes returns where a non-test file of the module assigns to field
// or keys it in a composite literal.
func (m *module) writes(field *types.Var) []token.Pos {
	var at []token.Pos
	for path, files := range m.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				var targets []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					targets = n.Lhs
				case *ast.KeyValueExpr:
					targets = []ast.Expr{n.Key}
				}
				for _, e := range targets {
					if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						e = sel.Sel
					}
					if id, ok := e.(*ast.Ident); ok && origin(m.info[path].Uses[id]) == field {
						at = append(at, id.Pos())
					}
				}
				return true
			})
		}
	}
	return at
}

// forbidDeclarations fails t where a non-test file of the package at
// internal/dir declares an identifier of one of the names, at any
// scope and of any kind.
func (m *module) forbidDeclarations(t *testing.T, dir string, names ...string) {
	t.Helper()
	m.pkg(t, "internal/"+dir)
	found := map[token.Pos]string{}
	for id, obj := range m.info[internal+dir].Defs {
		if obj != nil && slices.Contains(names, id.Name) {
			found[id.Pos()] = dir + " declares " + id.Name
		}
	}
	m.reportEach(t, found)
}

// report fails t at each position, saying what is found there.
func (m *module) report(t *testing.T, at []token.Pos, what string) {
	t.Helper()
	found := map[token.Pos]string{}
	for _, pos := range at {
		found[pos] = what
	}
	m.reportEach(t, found)
}

// reportEach fails t at each position, in file order, saying what is
// found there.
func (m *module) reportEach(t *testing.T, found map[token.Pos]string) {
	t.Helper()
	at := make([]token.Pos, 0, len(found))
	for pos := range found {
		at = append(at, pos)
	}
	slices.Sort(at)
	for _, pos := range at {
		t.Errorf("%s: %s", m.at(pos), found[pos])
	}
}

// at is pos as file:line:column, the file relative to the module root.
func (m *module) at(pos token.Pos) string {
	p := m.fset.Position(pos)
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, p.Filename); err == nil {
			p.Filename = rel
		}
	}
	return p.String()
}

// origin is the generic declaration an instantiated field or method
// comes from, and obj itself otherwise.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Var:
		return o.Origin()
	case *types.Func:
		return o.Origin()
	}
	return obj
}

// jsonKey returns the key a struct tag's json entry names ("-" for
// none), and whether the tag has a json entry.
func jsonKey(tag string) (string, bool) {
	v, ok := reflect.StructTag(tag).Lookup("json")
	key, _, _ := strings.Cut(v, ",")
	return key, ok
}
