package routerwatch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"routerwatch/internal/analysis/load"
)

// TestNoUnsetOptions keeps knobs from regrowing: every exported field of an
// *Options, *Config or *Spec struct must be assigned by some code in the
// module or bench/ — tests included — other than the declaring package's
// own non-test files. A field only its own package's defaulting code
// writes is a constant spelled as an option: nothing can observe a second
// value of it, yet every test matrix and fuzz dictionary has to carry it.
// The scenario-file types of internal/protocol are excluded: encoding/json
// sets their fields by reflection.
//
// "Assigned" is a keyed or positional composite-literal element, the left
// side of an assignment, or an address taken (flag.XxxVar(&o.F, …)).
func TestNoUnsetOptions(t *testing.T) {
	l, pkgs := loadModule(t)

	// The candidate fields, keyed by the position of their declaration:
	// a package is type-checked a second time together with its in-package
	// tests, which yields distinct field objects at the same positions.
	type field struct{ name, pkg string }
	fields := make(map[token.Pos]field)
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !(strings.HasSuffix(name, "Options") ||
				strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Spec")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok || p.Path == "routerwatch/internal/protocol" && strings.HasSuffix(name, "Spec") {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f.Pos()] = field{p.Name + "." + name + "." + f.Name(), p.Path}
				}
			}
		}
	}

	set := make(map[token.Pos]bool)
	// scan records the fields files assign; own names the package whose
	// fields these files may not vouch for ("" for test files).
	scan := func(files []*ast.File, info *types.Info, own string) {
		mark := func(obj types.Object) {
			if v, ok := obj.(*types.Var); ok && v.IsField() && fields[v.Pos()].pkg != own {
				set[v.Pos()] = true
			}
		}
		markExpr := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				mark(info.Uses[sel.Sel])
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := info.TypeOf(n)
					if typ == nil {
						break
					}
					st, ok := deref(typ).Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							mark(info.Uses[kv.Key.(*ast.Ident)])
						} else {
							mark(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markExpr(lhs)
					}
				case *ast.IncDecStmt:
					markExpr(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markExpr(n.X)
					}
				}
				return true
			})
		}
	}

	byDir := make(map[string]*load.Package)
	for _, p := range pkgs {
		scan(p.Files, l.Info, p.Path)
		byDir[filepath.Clean(p.Dir)] = p
	}

	// Test files, bench/harness included: each directory's in-package tests
	// are checked together with the package's own files, its external test
	// package on its own; both import through the shared loader.
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		paths, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
		groups := make(map[string][]*ast.File)
		for _, path := range paths {
			f, err := parser.ParseFile(l.Fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			groups[f.Name.Name] = append(groups[f.Name.Name], f)
		}
		for name, tests := range groups {
			files := tests
			if p := byDir[filepath.Clean(dir)]; p != nil && p.Name == name {
				files = append(append([]*ast.File(nil), p.Files...), tests...)
			}
			info := &types.Info{
				Types: make(map[ast.Expr]types.TypeAndValue),
				Uses:  make(map[*ast.Ident]types.Object),
			}
			cfg := types.Config{Importer: l, Error: func(err error) { t.Errorf("type-checking tests in %s: %v", dir, err) }}
			cfg.Check(dir+" ["+name+"]", l.Fset, files, info) // errors went to cfg.Error
			scan(tests, info, "")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unset []string
	for pos, f := range fields {
		if !set[pos] {
			unset = append(unset, f.name)
		}
	}
	slices.Sort(unset)
	for _, name := range unset {
		t.Errorf("%s is set by no code outside its package's own non-test files: make it a constant", name)
	}
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
