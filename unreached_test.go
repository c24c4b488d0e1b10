package rhsc

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryInternalExportIsReached holds internal/ to the code the
// program runs. It type-checks every non-test package of the module and
// walks, to a fixpoint, what the entry points (the root package, cmd/,
// examples/ and bench/) reference: a package-level declaration is
// reached when reached non-test code names it. Every exported function,
// method and type under internal/ that is not reached is listed, so an
// export whose only caller is a test fails here too.
//
// Two kinds of method are reached without being named:
//   - a method of a reached type whose name belongs to an interface the
//     type implements (error, fmt.Stringer, heap.Interface, eos.EOS, …),
//     because a call through the interface names the interface's method;
//   - the exported methods of a type the root package aliases (rhsc.Monitor
//     = core.Monitor, …), because they are the library's API.
func TestEveryInternalExportIsReached(t *testing.T) {
	m, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	var unreached []string
	for _, obj := range m.unreachedInternalExports() {
		pos := m.fset.Position(obj.Pos())
		rel, _ := filepath.Rel(m.root, pos.Filename)
		unreached = append(unreached, rel+": "+objectName(obj))
	}
	sort.Strings(unreached)
	if len(unreached) > 0 {
		t.Errorf("%d exported internal/ declarations no entry point reaches; delete them, or move a test-only oracle into the _test.go files:\n\t%s",
			len(unreached), strings.Join(unreached, "\n\t"))
	}
}

// module is the type-checked non-test code of one Go module.
type module struct {
	root  string
	path  string
	fset  *token.FileSet
	pkgs  map[string]*modPkg // by import path
	decls map[types.Object]ast.Node
}

type modPkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

func loadModule(root string) (*module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &module{
		root:  root,
		fset:  token.NewFileSet(),
		pkgs:  map[string]*modPkg{},
		decls: map[types.Object]ast.Node{},
	}
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			m.path = f[1]
		}
	}
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		// The files the build would compile: per-architecture files
		// declare the same names under complementary constraints.
		parsed, err := parser.ParseDir(m.fset, p, func(fi os.FileInfo) bool {
			ok, err := build.Default.MatchFile(p, fi.Name())
			return err == nil && ok && !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, pkg := range parsed {
			rel, _ := filepath.Rel(root, p)
			ip := path.Join(m.path, filepath.ToSlash(rel))
			mp := &modPkg{}
			for _, f := range pkg.Files {
				mp.files = append(mp.files, f)
			}
			m.pkgs[ip] = mp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	imp := &moduleImporter{m: m, std: importer.Default()}
	for ip := range m.pkgs {
		if _, err := imp.Import(ip); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// moduleImporter type-checks module packages from source, on demand and
// so in dependency order (the module builds, so imports form no cycle),
// and takes everything else from export data.
type moduleImporter struct {
	m   *module
	std types.Importer
}

func (imp *moduleImporter) Import(ip string) (*types.Package, error) {
	mp, ok := imp.m.pkgs[ip]
	if !ok {
		return imp.std.Import(ip)
	}
	if mp.types != nil {
		return mp.types, nil
	}
	mp.info = &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(ip, imp.m.fset, mp.files, mp.info)
	if err != nil {
		return nil, err
	}
	mp.types = pkg
	for _, f := range mp.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				imp.m.decls[mp.info.Defs[d.Name]] = d
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						imp.m.decls[mp.info.Defs[s.Name]] = s
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if obj := mp.info.Defs[n]; obj != nil {
								imp.m.decls[obj] = s
							}
						}
					}
				}
			}
		}
	}
	return pkg, nil
}

func (m *module) isEntry(ip string) bool {
	rel := strings.TrimPrefix(strings.TrimPrefix(ip, m.path), "/")
	return rel == "" || strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/") ||
		rel == "bench" || strings.HasPrefix(rel, "bench/")
}

func (m *module) isInternal(obj types.Object) bool {
	return obj.Pkg() != nil && strings.HasPrefix(obj.Pkg().Path(), m.path+"/internal/")
}

// unreachedInternalExports walks the module's references from its
// entry points to a fixpoint and returns the exported internal/
// functions, methods and types it never reached.
func (m *module) unreachedInternalExports() []types.Object {
	reached := map[types.Object]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj == nil || reached[obj] {
			return
		}
		reached[obj] = true
		if _, ok := m.decls[obj]; ok {
			work = append(work, obj)
		}
	}

	// Roots: every declaration of an entry package, and every init
	// function and package-level variable of a package an entry package
	// imports, directly or not (they run on import).
	imported := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if imported[p] {
			return
		}
		imported[p] = true
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for ip, mp := range m.pkgs {
		if m.isEntry(ip) {
			visit(mp.types)
		}
	}
	for obj, d := range m.decls {
		if m.isEntry(obj.Pkg().Path()) {
			mark(obj)
			continue
		}
		if !imported[obj.Pkg()] {
			continue
		}
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "init" {
			mark(obj)
		}
		if _, ok := obj.(*types.Var); ok {
			mark(obj)
		}
	}
	// The method sets of the types the root package aliases.
	if root := m.pkgs[m.path]; root != nil {
		for _, name := range root.types.Scope().Names() {
			tn, ok := root.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.IsAlias() {
				continue
			}
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if named.Method(i).Exported() {
						mark(named.Method(i))
					}
				}
			}
		}
	}

	ifaces := m.interfaces()
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		info := m.pkgs[obj.Pkg().Path()].info
		ast.Inspect(m.decls[obj], func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if used := info.Uses[id]; used != nil {
					mark(used)
				}
			}
			return true
		})
		// A reached method reaches its receiver's type.
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if named := receiverNamed(recv.Type()); named != nil {
					mark(named.Obj())
				}
			}
		}
		// A reached type reaches the methods that satisfy an interface
		// it implements.
		if tn, ok := obj.(*types.TypeName); ok {
			named, ok := tn.Type().(*types.Named)
			if !ok || named.NumMethods() == 0 {
				continue
			}
			ptr := types.NewPointer(named)
			for _, iface := range ifaces {
				if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					name := iface.Method(i).Name()
					for j := 0; j < named.NumMethods(); j++ {
						if named.Method(j).Name() == name {
							mark(named.Method(j))
						}
					}
				}
			}
		}
	}

	var out []types.Object
	for obj, d := range m.decls {
		if reached[obj] || !obj.Exported() || !m.isInternal(obj) {
			continue
		}
		switch d.(type) {
		case *ast.FuncDecl, *ast.TypeSpec:
			out = append(out, obj)
		}
	}
	return out
}

// interfaces returns every non-empty interface the module's code spells
// out or declares, every one declared in a package it imports, directly
// or not, and the anonymous ones errors.Is, As and Unwrap assert to.
func (m *module) interfaces() []*types.Interface {
	var out []*types.Interface
	for _, mp := range m.pkgs {
		for _, f := range mp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if tv, ok := mp.info.Types[it]; ok {
						if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
							out = append(out, it)
						}
					}
				}
				return true
			})
		}
	}
	errType := types.Universe.Lookup("error").Type()
	out = append(out, errType.Underlying().(*types.Interface))
	anyType := types.Universe.Lookup("any").Type()
	method := func(name string, params, results []*types.Var) *types.Func {
		sig := types.NewSignatureType(nil, nil, nil, types.NewTuple(params...), types.NewTuple(results...), false)
		return types.NewFunc(token.NoPos, nil, name, sig)
	}
	param := func(t types.Type) []*types.Var { return []*types.Var{types.NewParam(token.NoPos, nil, "", t)} }
	for _, fn := range []*types.Func{
		method("Unwrap", nil, param(errType)),
		method("Unwrap", nil, param(types.NewSlice(errType))),
		method("Is", param(errType), param(types.Typ[types.Bool])),
		method("As", param(anyType), param(types.Typ[types.Bool])),
	} {
		out = append(out, types.NewInterfaceType([]*types.Func{fn}, nil).Complete())
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, mp := range m.pkgs {
		visit(mp.types)
	}
	return out
}

func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}

func objectName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if named := receiverNamed(recv.Type()); named != nil {
				return named.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return obj.Name()
}
