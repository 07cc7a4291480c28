package cmvrp

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// productionAllowList names the declarations under internal/ that may stay
// in non-test files although no production path reaches them, each with its
// reason. Keys are the names the gate prints.
var productionAllowList = map[string]string{
	"sim.Network.Step": "the single-step delivery API an interleaving checker drives one pick at a time; TestStepMatchesRun pins it to Run",
}

// TestProductionTreeHasNoTestOnlyCode type-checks the non-test files of
// this module and of bench/ and fails on every package-level declaration in
// a non-test file under internal/ that no production path reaches. Every
// declaration outside internal/ (the facade, cmd/, examples/, bench/) is a
// production root, and so is every init function; a declaration is reached
// when a reached declaration refers to it. A method's own receiver and
// `var _ I = (*T)(nil)` assertions are not uses. A method of a reached type
// is reached when it implements fmt.Stringer, error, or a method of a
// module-declared interface that production code calls.
//
// Code that only tests need belongs in a _test.go file of the package it
// checks; code nothing needs is deleted.
func TestProductionTreeHasNoTestOnlyCode(t *testing.T) {
	unreached, err := unreachedDecls(".", "repro")
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for _, d := range unreached {
		if productionAllowList[d.name] == "" {
			bad = append(bad, d.pos+": "+d.name)
		}
	}
	if len(bad) > 0 {
		t.Errorf("%d declarations under internal/ are reached only from tests or not at all; move each into a _test.go file of its package or delete it:\n\t%s",
			len(bad), strings.Join(bad, "\n\t"))
	}
	if len(productionAllowList) > 3 {
		t.Errorf("allow-list has %d entries, at most 3", len(productionAllowList))
	}
	listed := map[string]bool{}
	for _, d := range unreached {
		listed[d.name] = true
	}
	for name := range productionAllowList {
		if !listed[name] {
			t.Errorf("allow-list entry %s is reached from production or gone; remove it", name)
		}
	}
}

// prodDecl is a package-level declaration: pkg.Name or pkg.Recv.Name, and
// its file:line.
type prodDecl struct{ name, pos string }

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// unreachedDecls type-checks the non-test files of every package below
// root, whose import path is modPath joined with its directory, and returns
// the declarations under internal/ that no production root reaches, sorted
// by position. Directories named testdata or starting with "." or "_" are
// skipped, as the go command skips them; .bench_build holds copies of other
// trees.
func unreachedDecls(root, modPath string) ([]prodDecl, error) {
	dirs := map[string]string{} // import path -> directory
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); p != root && (n == "testdata" || n[0] == '.' || n[0] == '_') {
			return filepath.SkipDir
		}
		dirs[path.Join(modPath, filepath.ToSlash(p))] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	var (
		fset    = token.NewFileSet()
		std     = importer.Default()
		pkgs    = map[string]*types.Package{}
		decls   = map[types.Object]prodDecl{} // internal declarations
		roots   []types.Object
		refs    = map[types.Object][]types.Object{}
		methods = map[*types.TypeName][]*types.Func{}
		ifaces  []*types.Interface
		check   importerFunc
	)
	check = func(ip string) (*types.Package, error) {
		if pkg, ok := pkgs[ip]; ok {
			return pkg, nil
		}
		dir, ok := dirs[ip]
		if !ok {
			return std.Import(ip)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, e := range ents {
			if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
				f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				files = append(files, f)
			}
		}
		if len(files) == 0 {
			return nil, nil
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: check}).Check(ip, fset, files, info)
		if err != nil {
			return nil, err
		}
		pkgs[ip] = pkg
		internal := strings.Contains(ip+"/", "/internal/")
		// declare records the declaration id names and every object the
		// code under root refers to, leaving out the subtree skip.
		declare := func(id *ast.Ident, root, skip ast.Node) {
			obj := info.Defs[id]
			name := pkg.Name() + "." + obj.Name()
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				recv := fn.Type().(*types.Signature).Recv().Type()
				if p, ok := recv.(*types.Pointer); ok {
					recv = p.Elem()
				}
				tn := recv.(*types.Named).Obj()
				methods[tn] = append(methods[tn], fn)
				name = pkg.Name() + "." + tn.Name() + "." + obj.Name()
			}
			if _, ok := obj.(*types.TypeName); ok && types.IsInterface(obj.Type()) {
				ifaces = append(ifaces, obj.Type().Underlying().(*types.Interface))
			}
			if !internal || obj.Name() == "init" {
				roots = append(roots, obj)
			}
			if internal {
				pos := fset.Position(id.Pos())
				decls[obj] = prodDecl{name, fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line)}
			}
			ast.Inspect(root, func(n ast.Node) bool {
				if n == skip {
					return false
				}
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
					use := info.Uses[id]
					if fn, ok := use.(*types.Func); ok {
						use = fn.Origin()
					}
					refs[obj] = append(refs[obj], use)
				}
				return true
			})
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					declare(d.Name, d, d.Recv)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							declare(spec.Name, spec, nil)
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								if id.Name != "_" { // var _ I = (*T)(nil) is no use
									declare(id, spec, nil)
								}
							}
						}
					}
				}
			}
		}
		return pkg, nil
	}
	for ip := range dirs {
		if _, err := check(ip); err != nil {
			return nil, err
		}
	}

	// fmt calls String, and callers of error values call Error, without
	// naming them.
	fmtPkg, err := std.Import("fmt")
	if err != nil {
		return nil, err
	}
	for _, obj := range []types.Object{fmtPkg.Scope().Lookup("Stringer"), types.Universe.Lookup("error")} {
		it := obj.Type().Underlying().(*types.Interface)
		ifaces = append(ifaces, it)
		roots = append(roots, it.Method(0))
	}
	reached := map[types.Object]bool{}
	for queue := roots; len(queue) > 0; {
		for len(queue) > 0 {
			obj := queue[0]
			queue = queue[1:]
			if !reached[obj] {
				reached[obj] = true
				queue = append(queue, refs[obj]...)
			}
		}
		// A call through an interface reaches the implementing method of
		// every reached type.
		for tn, ms := range methods {
			for _, m := range ms {
				if reached[tn] && !reached[m] && implementsCalled(tn, m, ifaces, reached) {
					queue = append(queue, m)
				}
			}
		}
	}
	var out []prodDecl
	for obj, d := range decls {
		if !reached[obj] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out, nil
}

// implementsCalled reports whether m, a method of tn, implements a reached
// method of an interface in ifaces that tn or *tn satisfies.
func implementsCalled(tn *types.TypeName, m *types.Func, ifaces []*types.Interface, reached map[types.Object]bool) bool {
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if im := it.Method(i); im.Name() == m.Name() && reached[im] &&
				(types.Implements(tn.Type(), it) || types.Implements(types.NewPointer(tn.Type()), it)) {
				return true
			}
		}
	}
	return false
}
