// Reachability of shipped code: every top-level identifier declared in
// a non-test file under internal/ must be reached from some program —
// a main package under cmd/, examples/ or bench/ — through non-test
// code. A function only tests call is an oracle, and an oracle lives in
// the _test.go file of the package whose tests use it. A method counts
// as reached when reached code names it, or when its type is reached
// and an interface reached code uses requires it: a method no program
// calls, directly or through an interface, is an oracle too.
package repro_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// reachAllowlist names identifiers (path.Name, or path.Type.Method)
// that stay in shipped code although no program reaches them: each is
// an extra root, with the reason.
var reachAllowlist = map[string]string{
	"repro/internal/shapley.Exact":                "the float subset formula (Equation 1): core's tests hold REF's exact φ to it, an oracle computed apart from the Contrib engine",
	"repro/internal/model.Instance.Restrict":      "the sub-instance a coalition schedules alone, the paper's v(C): core's tests hold REF's embedded subcoalition schedules to an independent run on it, and model's to its definition",
	"repro/internal/fed.Federation.SubmitThrough": "streaming ingestion: a driver alternates it with Step to replay a job source in one step's memory (the SWF and scenario sources implement its JobSource); its tests and fuzzer hold it to eager submission, and no shipped program replays a stream yet",
}

// listedPackage is the part of `go list -json` the check reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// declared is one package-level declaration: the syntax whose
// identifiers a reached object reaches, and the package that resolves
// them.
type declared struct {
	node ast.Node
	info *types.Info
}

func TestShippedCodeIsReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("the reachability check spawns the go tool; skipped in -short")
	}
	start := time.Now()
	pkgs := listModule(t)

	// Standard packages come from the compiler's export data; the
	// module's are type-checked from source, each once, in dependency
	// order, so that every use resolves to the object it denotes.
	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok && f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	decls := map[types.Object]declared{}
	var roots, shipped []types.Object
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
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		internal := strings.HasPrefix(p.ImportPath, "repro/internal/")

		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := info.Defs[d.Name]
					decls[obj] = declared{d, info}
					switch {
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

	var orphans []string
	for _, obj := range shipped {
		if !reached[obj] {
			orphans = append(orphans, fmt.Sprintf("%s: %s is reached by no program",
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

// listModule lists every package of the module and its dependencies in
// dependency order, with the export data of the standard ones.
func listModule(t *testing.T) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,GoFiles,Export,Standard", "./...")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
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

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
