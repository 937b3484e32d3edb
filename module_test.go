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
	"strings"
	"sync"
	"testing"
)

// module is every package of the module and its dependencies as the go
// tool lists them, with the module's own type-checked from their
// non-test files: what TestShippedCodeIsReachable and TestStructure
// read.
type module struct {
	fset *token.FileSet
	pkgs []listedPackage // in dependency order, standard ones included
	// std imports a standard package from the compiler's export data.
	std types.Importer
	// Per import path of a module package: its parsed non-test files,
	// what they resolve to, and the package they make.
	files   map[string][]*ast.File
	info    map[string]*types.Info
	checked map[string]*types.Package
}

// listedPackage is the part of `go list -json` the module reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

var (
	loadOnce   sync.Once
	loaded     *module
	loadFailed error
)

// loadModule returns the module, listed and type-checked once per test
// binary.
func loadModule(t *testing.T) *module {
	t.Helper()
	if testing.Short() {
		t.Skip("loading the module spawns the go tool; skipped in -short")
	}
	loadOnce.Do(func() { loaded, loadFailed = load() })
	if loadFailed != nil {
		t.Fatal(loadFailed)
	}
	return loaded
}

// load lists the module and type-checks each of its packages from
// source, once, in dependency order, so that every use resolves to the
// object it denotes; standard packages come from the compiler's export
// data.
func load() (*module, error) {
	pkgs, err := listModule()
	if err != nil {
		return nil, err
	}
	m := &module{
		fset:    token.NewFileSet(),
		pkgs:    pkgs,
		files:   map[string][]*ast.File{},
		info:    map[string]*types.Info{},
		checked: map[string]*types.Package{},
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		}
	}
	m.std = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok && f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := m.checked[path]; ok {
			return p, nil
		}
		return m.std.Import(path)
	})
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, m.fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		m.files[p.ImportPath], m.info[p.ImportPath], m.checked[p.ImportPath] = files, info, pkg
	}
	return m, nil
}

// listModule lists every package of the module and its dependencies in
// dependency order, with the export data of the standard ones.
func listModule() ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,GoFiles,Export,Standard", "./...")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
