// Reachability of shipped code: every top-level identifier declared in
// a non-test file under internal/ must be reached from some program —
// a main package under cmd/ or examples/ — through non-test code, or
// be listed in benchOnly when only the benchmark's main (bench/)
// reaches it. A function only tests call is an oracle, and an oracle
// lives in the _test.go file of the package whose tests use it. A
// method counts as reached when reached code names it, or when its
// type is reached and an interface reached code uses requires it: a
// method no program calls, directly or through an interface, is an
// oracle too. So is every declaration of a package only tests import:
// no program reaches it.
package repro_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"maps"
	"sort"
	"strings"
	"testing"
	"time"
)

// reachAllowlist names identifiers (path.Name, or path.Type.Method)
// that stay in shipped code although no program reaches them: each is
// an extra root, with the reason.
var reachAllowlist = map[string]string{
	"repro/internal/shapley.Exact":           "the float subset formula (Equation 1): core's tests hold REF's exact φ to it, an oracle computed apart from the Contrib engine",
	"repro/internal/model.Instance.Restrict": "the sub-instance a coalition schedules alone, the paper's v(C): core's tests hold REF's embedded subcoalition schedules to an independent run on it, and model's to its definition",
}

// benchOnly names, with the reason, every identifier that only the
// benchmark's main (bench/) reaches: code no cmd/ or examples/ program
// runs, kept because the benchmark drives or times it. The check fails
// on a bench-only identifier missing here, and on an entry a cmd/ or
// examples/ program reaches, so the list is exactly that debt.
var benchOnly = map[string]string{
	"repro/internal/core.Ref.Game":               "the shapley.refresh_phi_us.k8 and shapley.sample_us.k8.n15 kernels hand REF's game to shapley.Contrib and SampleAt directly; programs read φ through the stepper",
	"repro/internal/ctrl.DirectProvider":         "the ctrl.plane kernel's zero-staleness provider; federations observe through CachedSnapshotProvider, which equals it at max age 0",
	"repro/internal/ctrl.DirectProvider.MaxAge":  "part of ctrl.DirectProvider, the ctrl.plane kernel's provider",
	"repro/internal/ctrl.DirectProvider.Observe": "part of ctrl.DirectProvider, the ctrl.plane kernel's provider",
	"repro/internal/daemon.DirStore.Dir":         "the trace's timed store sizes each saved envelope file in the store's directory (daemon.store.save_bytes)",
	"repro/internal/daemon.LoadConfig":           "configures RunLoad, the in-process burst behind daemon.pipeline.burst_p99_ms",
	"repro/internal/daemon.LoadReport":           "what RunLoad reports",
	"repro/internal/daemon.RunLoad":              "the in-process 10k-session burst behind daemon.pipeline.burst_p99_ms; no command runs it",
	"repro/internal/daemon.loadClients":          "a RunLoad default",
	"repro/internal/daemon.loadJobs":             "a RunLoad default",
	"repro/internal/daemon.loadSessionConfig":    "the session RunLoad creates",
	"repro/internal/daemon.loadStepSize":         "a RunLoad default",
	"repro/internal/daemon.loadSteps":            "a RunLoad default",
	"repro/internal/daemon.Pipeline.Stats":       "the pipeline counters behind daemon.pipeline.coalesced_ratio and wakeups_per_adv",
	"repro/internal/daemon.PipelineStats":        "what Pipeline.Stats returns",
	"repro/internal/daemon.Session.Submit":       "the trace's in-process session target submits through it; fairschedd's handler calls the unexported submit it wraps",
	"repro/internal/engine.Engine.Seed":          "the trace mirrors a federation's member engines, rebuilt from their seeds",
	"repro/internal/engine.Engine.SetAdmission":  "inert (accepts only nil): bench/replay.go configures its engines through it",
	"repro/internal/exp.AlgorithmByName":         "forwards to core.AlgorithmByName: bench/replay.go builds its algorithms through it",
	"repro/internal/fed.DefaultSWFSlack":         "the SWF source's reorder buffer, timed by fed.swfsource.pull_ns_per_job",
	"repro/internal/fed.NewSWFSource":            "opens the SWF source that fed.swfsource.pull_ns_per_job times; no command replays an archive into a federation",
	"repro/internal/fed.SWFSource":               "the SWF archive stream fed.swfsource.pull_ns_per_job times",
	"repro/internal/fed.SWFSource.Next":          "the pull fed.swfsource.pull_ns_per_job times",
	"repro/internal/fed.SWFSource.readOne":       "part of SWFSource.Next",
	"repro/internal/fed.SWFSource.userHash":      "part of SWFSource.Next",
	"repro/internal/fed.swfHeap":                 "SWFSource's reorder buffer",
	"repro/internal/fed.swfHeap.Len":             "SWFSource's reorder buffer, through container/heap",
	"repro/internal/fed.swfHeap.Less":            "SWFSource's reorder buffer, through container/heap",
	"repro/internal/fed.swfHeap.Pop":             "SWFSource's reorder buffer, through container/heap",
	"repro/internal/fed.swfHeap.Push":            "SWFSource's reorder buffer, through container/heap",
	"repro/internal/fed.swfHeap.Swap":            "SWFSource's reorder buffer, through container/heap",
	"repro/internal/fed.swfItem":                 "an entry of SWFSource's reorder buffer",
	"repro/internal/gen.FedScenario.Source":      "opens the scenario stream gen.fedsource.next_ns_per_job times; programs generate scenarios eagerly",
	"repro/internal/gen.FedSource":               "the scenario stream gen.fedsource.next_ns_per_job times",
	"repro/internal/gen.FedSource.Next":          "the pull gen.fedsource.next_ns_per_job times",
	"repro/internal/gen.FedSource.advance":       "part of FedSource.Next",
	"repro/internal/gen.fedUser":                 "one user process of FedSource",
	"repro/internal/gen.fedUserHeap":             "FedSource's merge heap",
	"repro/internal/gen.fedUserHeap.Len":         "FedSource's merge heap, through container/heap",
	"repro/internal/gen.fedUserHeap.Less":        "FedSource's merge heap, through container/heap",
	"repro/internal/gen.fedUserHeap.Pop":         "FedSource's merge heap, through container/heap",
	"repro/internal/gen.fedUserHeap.Push":        "FedSource's merge heap, through container/heap",
	"repro/internal/gen.fedUserHeap.Swap":        "FedSource's merge heap, through container/heap",
	"repro/internal/gen.fedUserRef":              "an entry of FedSource's merge heap",
	"repro/internal/sim.Cluster.Dispatch":        "part of Cluster.Step, the loop of a cluster alone that sim.cluster.step_ns times; programs dispatch a schedule set's slots through DispatchCount and StartHeads",
	"repro/internal/sim.Cluster.Inject":          "timed by sim.cluster.inject_ns; programs inject through a schedule set's Queues.Inject",
	"repro/internal/sim.Cluster.NextEventTime":   "part of Cluster.Step, the loop of a cluster alone that sim.cluster.step_ns times; a schedule set reads its queues' next release and each slot's NextCompletionAfter",
	"repro/internal/sim.Cluster.Step":            "the loop of a cluster alone, timed by sim.cluster.step_ns; programs step a one-slot schedule set (core.FromPolicy) instead",
	"repro/internal/sim.New":                     "builds the cluster alone that sim.cluster.step_ns and sim.cluster.inject_ns time; programs build clusters on a schedule set's Queues",
}

// declared is one package-level declaration: the syntax whose
// identifiers a reached object reaches, and the package that resolves
// them.
type declared struct {
	node ast.Node
	info *types.Info
}

func TestShippedCodeIsReachable(t *testing.T) {
	start := time.Now()
	m := loadModule(t)
	pkgs, fset, std := m.pkgs, m.fset, m.std

	decls := map[types.Object]declared{}
	var roots, benchRoots, shipped []types.Object
	// Interfaces a value of a reached type may be called through: the
	// standard library's (its code calls String, Error, MarshalJSON,
	// ServeHTTP and the like on values handed to it), and the module's
	// that reached code names or calls a method of.
	ifaces := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	for _, p := range pkgs {
		if !p.Standard {
			continue
		}
		pkg, err := std.Import(p.ImportPath)
		if err != nil {
			continue // a package without export data declares nothing the module links
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces[it] = true
				}
			}
		}
	}
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		info := m.info[p.ImportPath]
		internal := strings.HasPrefix(p.ImportPath, "repro/internal/")

		for _, f := range m.files[p.ImportPath] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := info.Defs[d.Name]
					decls[obj] = declared{d, info}
					switch {
					case p.ImportPath == "repro/bench" && (d.Name.Name == "init" || d.Name.Name == "main") && d.Recv == nil:
						benchRoots = append(benchRoots, obj)
					case d.Name.Name == "init" && d.Recv == nil, p.Name == "main" && d.Name.Name == "main":
						roots = append(roots, obj)
					case internal:
						shipped = append(shipped, obj)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, id := range names {
							if id.Name == "_" {
								continue
							}
							obj := info.Defs[id]
							decls[obj] = declared{s, info}
							if internal {
								shipped = append(shipped, obj)
							}
						}
					}
				}
			}
		}
	}
	reached := map[types.Object]bool{}
	var reachedTypes []*types.TypeName
	var reach func(types.Object)
	reach = func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		d, ok := decls[obj]
		if !ok || reached[obj] {
			return
		}
		reached[obj] = true
		if tn, ok := obj.(*types.TypeName); ok {
			reachedTypes = append(reachedTypes, tn)
		}
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if used := d.info.Uses[id]; used != nil {
					if sig, ok := used.Type().(*types.Signature); ok && sig.Recv() != nil {
						if it, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
							ifaces[it] = true // a method called through an interface
						}
					}
					if it, ok := used.Type().Underlying().(*types.Interface); ok {
						if _, named := used.(*types.TypeName); named {
							ifaces[it] = true
						}
					}
					reach(used)
				}
			}
			return true
		})
	}
	// reachInterfaces reaches, for every reached type and every
	// interface it satisfies, the methods the interface requires, until
	// a pass reaches nothing new (a method may name new types and
	// interfaces).
	reachInterfaces := func() {
		for before := -1; before != len(reached); {
			before = len(reached)
			for _, tn := range reachedTypes {
				ptr := types.NewPointer(tn.Type())
				for it := range ifaces {
					if types.IsInterface(tn.Type()) || !types.Implements(ptr, it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						m := it.Method(i)
						obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
						reach(obj)
					}
				}
			}
		}
	}
	for _, r := range roots {
		reach(r)
	}
	reachInterfaces()
	byName := map[string]types.Object{}
	for _, obj := range shipped {
		byName[qualified(obj)] = obj
	}
	for name, reason := range reachAllowlist {
		obj := byName[name]
		switch {
		case obj == nil || reason == "":
			t.Errorf("allowlist entry %s: no such identifier, or no reason given", name)
		case reached[obj]:
			t.Errorf("allowlist entry %s is reached by a program; drop it", name)
		default:
			reach(obj)
		}
	}
	reachInterfaces()
	programs := maps.Clone(reached)
	for _, r := range benchRoots {
		reach(r)
	}
	reachInterfaces()
	for name, reason := range benchOnly {
		switch obj := byName[name]; {
		case obj == nil || reason == "":
			t.Errorf("bench-only entry %s: no such identifier, or no reason given", name)
		case programs[obj]:
			t.Errorf("bench-only entry %s is reached by a cmd/ or examples/ program; drop it", name)
		}
	}

	var orphans []string
	for _, obj := range shipped {
		switch {
		case !reached[obj]:
			orphans = append(orphans, fmt.Sprintf("%s: %s is reached by no program",
				fset.Position(obj.Pos()), qualified(obj)))
		case !programs[obj] && benchOnly[qualified(obj)] == "":
			orphans = append(orphans, fmt.Sprintf("%s: %s is reached only by bench/; list it in benchOnly with the reason",
				fset.Position(obj.Pos()), qualified(obj)))
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Error(o)
	}
	t.Logf("%d packages listed, %d shipped identifiers checked in %v",
		len(pkgs), len(shipped), time.Since(start).Round(time.Millisecond))
}

// qualified names obj as the allowlist does: path.Name, or
// path.Type.Method for a method.
func qualified(obj types.Object) string {
	name := obj.Name()
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		name = recv.(*types.Named).Obj().Name() + "." + name
	}
	return obj.Pkg().Path() + "." + name
}
