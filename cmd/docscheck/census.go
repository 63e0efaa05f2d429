package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A kept symbol is a census finding the repository keeps on purpose. The
// symbol is the package name, then the receiver type for a method or
// field, then the name: "server.trackedWriter.Unwrap". The reason names
// who needs it.
type kept struct {
	symbol string
	reason string
}

var keep = []kept{
	{"server.trackedWriter.Unwrap", "http.ResponseController calls it through an interface net/http does not export: EnableFullDuplex, so /v1/ingest streams progress lines (TestIngestThenQuery)"},
	{"datalab.Batch", "public batch type of Result.Next, documented in docs/ARCHITECTURE.md and docs/ENGINE.md"},
	{"sqlengine.Batch.IsNull", "datalab.Batch's null test, documented in docs/ARCHITECTURE.md and docs/ENGINE.md"},
	{"datalab.NotebookSession.UpdateCell", "the paper's §VI cell editing, named where README.md introduces NotebookSession"},
	{"datalab.NotebookSession.DeleteCell", "the paper's §VI cell editing, named where README.md introduces NotebookSession"},
}

// A loader type-checks the tree's packages from source, each once, into
// one shared types.Info. An import path of the tree resolves to its
// directory; every other import is the standard library's, read from its
// compiled export data.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	dirs  map[string]string         // import path -> directory
	pkgs  map[string]*types.Package // by import path
	files []*ast.File
}

func (l *loader) Import(path string) (*types.Package, error) {
	dir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.files = append(l.files, files...)
	return pkg, nil
}

// census type-checks every non-test package in dirs, the directories of
// the walk's non-test Go files, and returns one entry per package-level
// func, type, var or const, method, or field of a named struct type that
// no non-test Go uses. A package under a nested module (a directory below
// root with its own go.mod, such as bench/) is a caller only: its uses
// count, its own declarations are never findings. Not findings: main and
// init, blank names, embedded fields, fields of anonymous struct types,
// methods that satisfy an interface the checked code names (or error,
// fmt.Stringer, json.Marshaler, which the standard library calls), and
// the keep table's symbols. A keep entry that is no finding is reported
// too, so the table cannot outlive its reasons.
func census(root string, dirs []string, keep []kept) ([]string, error) {
	l := &loader{
		fset: token.NewFileSet(),
		std:  importer.Default(),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		dirs: map[string]string{},
		pkgs: map[string]*types.Package{},
	}
	// A module's root directory holds Go files, so dirs holds every go.mod.
	type module struct{ path, dir string }
	var mods []module
	for _, dir := range dirs {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					mods = append(mods, module{strings.TrimSpace(rest), dir})
				}
			}
		}
	}
	var paths, own []string
	for _, dir := range dirs {
		var m module // the innermost module holding dir, and dir within it
		var rel string
		for _, mm := range mods {
			if r, err := filepath.Rel(mm.dir, dir); err == nil && !strings.HasPrefix(r, "..") && len(mm.dir) >= len(m.dir) {
				m, rel = mm, r
			}
		}
		path := strings.TrimSuffix(m.path+"/"+filepath.ToSlash(rel), "/.")
		l.dirs[path] = dir
		paths = append(paths, path)
		if m.dir == root {
			own = append(own, path)
		}
	}
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}

	used := uses(l)
	ifaces, err := visibleInterfaces(l)
	if err != nil {
		return nil, err
	}
	found := map[string]types.Object{}
	for _, path := range own {
		for sym, obj := range candidates(l.pkgs[path], ifaces) {
			if !used[obj] {
				found[sym] = obj
			}
		}
	}
	var out []string
	for _, k := range keep {
		if _, ok := found[k.symbol]; ok {
			delete(found, k.symbol)
		} else {
			out = append(out, fmt.Sprintf("keep %s: the census finds no such unused symbol (%s)", k.symbol, k.reason))
		}
	}
	syms := make([]string, 0, len(found))
	for sym := range found {
		syms = append(syms, sym)
	}
	sort.Slice(syms, func(i, j int) bool { return found[syms[i]].Pos() < found[syms[j]].Pos() })
	for _, sym := range syms {
		p := l.fset.Position(found[sym].Pos())
		out = append(out, fmt.Sprintf("%s:%d: %s (no non-test Go uses it)", p.Filename, p.Line, sym))
	}
	return out, nil
}

// uses returns every object some non-test Go refers to, an instance
// counting as its generic origin. A use inside the object's own
// declaration (a recursive call, a type naming itself) or in a method's
// receiver does not count.
func uses(l *loader) map[types.Object]bool {
	used := map[types.Object]bool{}
	type span struct{ pos, end token.Pos }
	self := map[types.Object]span{}
	receiver := map[*ast.Ident]bool{}
	for _, f := range l.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				self[l.info.Defs[n.Name]] = span{n.Pos(), n.End()}
				if n.Recv != nil {
					ast.Inspect(n.Recv, func(r ast.Node) bool {
						if id, ok := r.(*ast.Ident); ok {
							receiver[id] = true
						}
						return true
					})
				}
			case *ast.TypeSpec:
				self[l.info.Defs[n.Name]] = span{n.Pos(), n.End()}
			case *ast.CompositeLit:
				// An unkeyed struct literal sets every field without naming one.
				st, ok := l.info.Types[n].Type.Underlying().(*types.Struct)
				if ok && len(n.Elts) > 0 {
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := 0; i < st.NumFields(); i++ {
							used[st.Field(i).Origin()] = true
						}
					}
				}
			}
			return true
		})
	}
	for id, obj := range l.info.Uses {
		obj = origin(obj)
		if s, ok := self[obj]; receiver[id] || ok && s.pos <= id.Pos() && id.Pos() < s.end {
			continue
		}
		used[obj] = true
	}
	return used
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// visibleInterfaces returns, by method name, the interfaces with methods
// that the checked code names: the type of any expression or object, and
// the parameter and result types of any function type among them — so a
// value passed as sort.Interface counts. error, fmt.Stringer and
// json.Marshaler are added: the standard library calls them on any value.
func visibleInterfaces(l *loader) (map[string][]*types.Interface, error) {
	seen := map[*types.Interface]bool{}
	var add func(t types.Type)
	add = func(t types.Type) {
		if t == nil {
			return
		}
		switch u := t.Underlying().(type) {
		case *types.Interface:
			seen[u] = true
		case *types.Signature:
			for _, tuple := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					add(tuple.At(i).Type())
				}
			}
		}
	}
	for _, tv := range l.info.Types {
		add(tv.Type)
	}
	for _, obj := range l.info.Uses {
		add(obj.Type())
	}
	for _, obj := range l.info.Defs {
		if obj != nil {
			add(obj.Type())
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, std := range [][2]string{{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}} {
		pkg, err := l.std.Import(std[0])
		if err != nil {
			return nil, err
		}
		add(pkg.Scope().Lookup(std[1]).Type())
	}
	byMethod := map[string][]*types.Interface{}
	for iface := range seen {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byMethod[name] = append(byMethod[name], iface)
		}
	}
	return byMethod, nil
}

// candidates returns the declarations of pkg the census requires a use
// of, each by the name the keep table gives it.
func candidates(pkg *types.Package, ifaces map[string][]*types.Interface) map[string]types.Object {
	out := map[string]types.Object{}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if name == "_" || name == "main" || name == "init" {
			continue
		}
		obj := scope.Lookup(name)
		sym := pkg.Name() + "." + name
		out[sym] = obj
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() != "_" && !satisfies(named, m.Name(), ifaces) {
				out[sym+"."+m.Name()] = m
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); !f.Embedded() && f.Name() != "_" && f.Pkg() == pkg {
					out[sym+"."+f.Name()] = f
				}
			}
		}
	}
	return out
}

// satisfies reports whether method name of named (or of its pointer) is
// one a visible interface that the type implements calls.
func satisfies(named *types.Named, name string, ifaces map[string][]*types.Interface) bool {
	for _, iface := range ifaces[name] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}
