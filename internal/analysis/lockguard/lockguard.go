// Package lockguard machine-checks the locking discipline the parallel
// trial runner and routing's worker fan-out lean on. Three classes of
// concurrency bug survive every test that happens not to interleave badly;
// each becomes a diagnostic here:
//
//   - Locks copied by value: a sync.Mutex / RWMutex / WaitGroup (or a
//     struct holding one) received, passed, assigned or ranged over by
//     value guards a copy, not the shared state.
//   - Mixed guard discipline: a struct field written both under its
//     struct's mutex and outside it. The guarded writes prove the field
//     is meant to be mutex-protected; the unguarded ones race. The check
//     is interprocedural: a helper two calls below a Lock() is recognized
//     as guarded when every caller holds the lock (computed as a greatest
//     fixed point over the call graph, with function-value references
//     treated as unguarded callers). Writes to values freshly created in
//     the same function (constructors) are exempt.
//   - WaitGroup.Add inside the goroutine it accounts for: Add racing
//     Wait is the worker-pool bug class. The check follows static and
//     interface-dispatch calls out of `go` statements, so an Add two
//     calls down — or behind an interface method — is still caught.
package lockguard

import (
	"go/ast"
	"go/types"

	"routerwatch/internal/analysis"
	"routerwatch/internal/analysis/callgraph"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name:      "lockguard",
	Doc:       "reject copied locks, mixed mutex-guard discipline, and WaitGroup.Add inside spawned goroutines",
	RunModule: run,
}

// lockTypes are the sync types whose values must never be copied.
var lockTypes = map[string]bool{"Mutex": true, "RWMutex": true, "WaitGroup": true}

// structInfo is one in-tree struct type guarded by a mutex field.
type structInfo struct {
	named *types.Named
	mutex *types.Var // the sync.Mutex / sync.RWMutex field
}

func (s *structInfo) name() string { return s.named.Obj().Name() }

// write is one assignment to a field of a mutexed struct.
type write struct {
	field *types.Var
	owner *structInfo
	pos   ast.Node
	encl  *callgraph.Node
	fresh bool // receiver value created in the enclosing function
}

type goSite struct {
	stmt *ast.GoStmt
	encl *callgraph.Node
}

func run(pass *analysis.ModulePass) error {
	g := callgraph.Of(pass)

	// Index every in-tree struct with a direct mutex field.
	fieldOwner := make(map[*types.Var]*structInfo) // non-mutex field → struct
	mutexOwner := make(map[*types.Var]*structInfo) // mutex field → struct
	for _, pkg := range pass.Pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			var mutex *types.Var
			for i := 0; i < st.NumFields(); i++ {
				if n, ok := st.Field(i).Type().(*types.Named); ok &&
					n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" &&
					(n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex") {
					mutex = st.Field(i)
					break
				}
			}
			if mutex == nil {
				continue
			}
			info := &structInfo{named: named, mutex: mutex}
			mutexOwner[mutex] = info
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f != mutex {
					fieldOwner[f] = info
				}
			}
		}
	}

	var writes []*write
	locks := make(map[*callgraph.Node]map[*structInfo]bool) // F directly calls s.mu.Lock()
	addsDirect := make(map[*callgraph.Node]bool)            // F's body contains WaitGroup.Add
	var goSites []goSite

	for _, pkg := range pass.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch decl := d.(type) {
				case *ast.FuncDecl:
					checkSignature(pass, decl.Recv, "receiver")
					checkSignature(pass, decl.Type.Params, "parameter")
					if decl.Body == nil {
						continue
					}
					fn, _ := pass.TypesInfo.Defs[decl.Name].(*types.Func)
					encl := g.NodeOf(fn)
					fresh := freshLocals(pass, decl.Body)
					ast.Inspect(decl.Body, func(n ast.Node) bool {
						switch n := n.(type) {
						case *ast.FuncType:
							checkSignature(pass, n.Params, "parameter")
						case *ast.AssignStmt:
							checkCopyAssign(pass, n)
							for _, lhs := range n.Lhs {
								recordWrite(pass, lhs, encl, fresh, fieldOwner, &writes)
							}
						case *ast.IncDecStmt:
							recordWrite(pass, n.X, encl, fresh, fieldOwner, &writes)
						case *ast.GenDecl:
							checkCopyVar(pass, n)
						case *ast.RangeStmt:
							checkCopyRange(pass, n)
						case *ast.CallExpr:
							if s := lockedStruct(pass, n, mutexOwner); s != nil && encl != nil {
								if locks[encl] == nil {
									locks[encl] = make(map[*structInfo]bool)
								}
								locks[encl][s] = true
							}
							if encl != nil && isWaitGroupAdd(calleeOf(pass, n)) {
								addsDirect[encl] = true
							}
						case *ast.GoStmt:
							if encl != nil {
								goSites = append(goSites, goSite{stmt: n, encl: encl})
							}
						}
						return true
					})
				case *ast.GenDecl:
					// Package-level signature types and var copies.
					ast.Inspect(decl, func(n ast.Node) bool {
						if ft, ok := n.(*ast.FuncType); ok {
							checkSignature(pass, ft.Params, "parameter")
						}
						return true
					})
					checkCopyVar(pass, decl)
				}
			}
		}
	}

	reportMixedWrites(pass, g, writes, locks)
	reportGoroutineAdds(pass, g, goSites, addsDirect)
	return nil
}

// --- check A: locks copied by value ---

// checkSignature flags by-value lock-bearing receivers and parameters.
func checkSignature(pass *analysis.ModulePass, fl *ast.FieldList, role string) {
	if fl == nil {
		return
	}
	for _, field := range fl.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		if t == nil || !containsLock(t) {
			continue
		}
		names := field.Names
		if len(names) == 0 {
			pass.Reportf(field.Type.Pos(), "%s passes lock by value: %s", role, lockDesc(t))
			continue
		}
		for _, name := range names {
			if name.Name == "_" {
				continue
			}
			pass.Reportf(name.Pos(), "%s %s passes lock by value: %s", role, name.Name, lockDesc(t))
		}
	}
}

// checkCopyAssign flags assignments that copy an existing lock-bearing value.
func checkCopyAssign(pass *analysis.ModulePass, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for _, rhs := range as.Rhs {
		checkCopyExpr(pass, rhs)
	}
}

func checkCopyVar(pass *analysis.ModulePass, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			checkCopyExpr(pass, v)
		}
	}
}

func checkCopyExpr(pass *analysis.ModulePass, e ast.Expr) {
	switch unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		// An existing value being copied (not a fresh composite literal).
	default:
		return
	}
	if t := pass.TypesInfo.TypeOf(e); t != nil && containsLock(t) {
		pass.Reportf(e.Pos(), "assignment copies lock value: %s", lockDesc(t))
	}
}

func checkCopyRange(pass *analysis.ModulePass, r *ast.RangeStmt) {
	if r.Value == nil {
		return
	}
	if t := pass.TypesInfo.TypeOf(r.Value); t != nil && containsLock(t) {
		pass.Reportf(r.Value.Pos(), "range clause copies lock value: %s", lockDesc(t))
	}
}

// containsLock reports whether a value of type t embeds a sync lock.
func containsLock(t types.Type) bool {
	switch u := t.(type) {
	case *types.Named:
		if obj := u.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "sync" && lockTypes[obj.Name()] {
			return true
		}
		return containsLock(u.Underlying())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem())
	}
	return false
}

// lockDesc names the copied type for the diagnostic, vet-style.
func lockDesc(t types.Type) string {
	s := types.TypeString(t, func(p *types.Package) string { return p.Name() })
	if n, ok := t.(*types.Named); ok {
		if obj := n.Obj(); obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
			return s + " contains a sync lock"
		}
	}
	return s
}

// --- check B: mixed mutex-guard discipline ---

// freshLocals returns the local objects bound to freshly created values
// (composite literals, &composites, new(T)) — constructor targets whose
// unguarded writes are legitimate.
func freshLocals(pass *analysis.ModulePass, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			switch r := unparen(rhs).(type) {
			case *ast.CompositeLit:
				fresh[obj] = true
			case *ast.UnaryExpr:
				if _, comp := r.X.(*ast.CompositeLit); comp {
					fresh[obj] = true
				}
			case *ast.CallExpr:
				if id, ok := unparen(r.Fun).(*ast.Ident); ok && id.Name == "new" {
					if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
						fresh[obj] = true
					}
				}
			}
		}
		return true
	})
	return fresh
}

// recordWrite registers lhs as a field write when it targets a mutexed
// struct's non-mutex field.
func recordWrite(pass *analysis.ModulePass, lhs ast.Expr, encl *callgraph.Node,
	fresh map[types.Object]bool, fieldOwner map[*types.Var]*structInfo, writes *[]*write) {
	sel, ok := unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s := pass.TypesInfo.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	field, ok := s.Obj().(*types.Var)
	if !ok {
		return
	}
	owner := fieldOwner[field]
	if owner == nil || encl == nil {
		return
	}
	isFresh := false
	if base, ok := unparen(sel.X).(*ast.Ident); ok {
		if obj := pass.TypesInfo.Uses[base]; obj != nil && fresh[obj] {
			isFresh = true
		}
	}
	*writes = append(*writes, &write{field: field, owner: owner, pos: sel, encl: encl, fresh: isFresh})
}

// lockedStruct resolves a call like s.mu.Lock() to the struct whose mutex
// is taken (write locks only — RLock guards no writes).
func lockedStruct(pass *analysis.ModulePass, call *ast.CallExpr, mutexOwner map[*types.Var]*structInfo) *structInfo {
	fn := calleeOf(pass, call)
	if fn == nil || fn.Name() != "Lock" {
		return nil
	}
	recv := methodRecvNamed(fn)
	if recv == nil || recv.Obj().Pkg() == nil || recv.Obj().Pkg().Path() != "sync" ||
		(recv.Obj().Name() != "Mutex" && recv.Obj().Name() != "RWMutex") {
		return nil
	}
	outer, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	inner, ok := unparen(outer.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s := pass.TypesInfo.Selections[inner]
	if s == nil || s.Kind() != types.FieldVal {
		return nil
	}
	field, _ := s.Obj().(*types.Var)
	return mutexOwner[field]
}

// reportMixedWrites flags unguarded writes to fields that also have
// guarded writes. Guardedness is a greatest fixed point: a function is
// guarded for struct S when it locks S's mutex itself, or when every
// calling context does (function-value references count as unknown, hence
// unguarded, callers).
func reportMixedWrites(pass *analysis.ModulePass, g *callgraph.Graph, writes []*write,
	locks map[*callgraph.Node]map[*structInfo]bool) {
	structs := make(map[*structInfo]bool)
	for _, w := range writes {
		if !w.fresh {
			structs[w.owner] = true
		}
	}
	// Deterministic struct order: first appearance in the write list.
	var order []*structInfo
	seen := make(map[*structInfo]bool)
	for _, w := range writes {
		if structs[w.owner] && !seen[w.owner] {
			seen[w.owner] = true
			order = append(order, w.owner)
		}
	}
	for _, s := range order {
		guarded := guardedSet(g, s, locks)
		byField := make(map[*types.Var][]*write)
		var fields []*types.Var
		for _, w := range writes {
			if w.owner != s || w.fresh {
				continue
			}
			if len(byField[w.field]) == 0 {
				fields = append(fields, w.field)
			}
			byField[w.field] = append(byField[w.field], w)
		}
		for _, f := range fields {
			var good, bad []*write
			for _, w := range byField[f] {
				if guarded[w.encl] {
					good = append(good, w)
				} else {
					bad = append(bad, w)
				}
			}
			if len(good) == 0 || len(bad) == 0 {
				continue // consistent discipline either way
			}
			ex := pass.Fset.Position(good[0].pos.Pos())
			for _, w := range bad {
				pass.Reportf(w.pos.Pos(),
					"%s.%s written without %s.%s held; other writes are mutex-guarded (e.g. %s:%d)",
					s.name(), f.Name(), s.name(), s.mutex.Name(), ex.Filename, ex.Line)
			}
		}
	}
}

// guardedSet computes, for struct s, the in-tree functions whose every
// calling context holds s's mutex.
func guardedSet(g *callgraph.Graph, s *structInfo, locks map[*callgraph.Node]map[*structInfo]bool) map[*callgraph.Node]bool {
	guarded := make(map[*callgraph.Node]bool)
	for _, n := range g.Nodes() {
		if n.InTree() {
			guarded[n] = true
		}
	}
	var wl []*callgraph.Node
	demote := func(n *callgraph.Node) {
		if guarded[n] && !locks[n][s] {
			guarded[n] = false
			wl = append(wl, n)
		}
	}
	for _, n := range g.Nodes() {
		if !n.InTree() || locks[n][s] {
			continue
		}
		callIn, valueIn := false, false
		for _, e := range n.In {
			if e.Kind == callgraph.KindFuncValue {
				valueIn = true
			} else {
				callIn = true
			}
		}
		if !callIn || valueIn {
			demote(n)
		}
	}
	for len(wl) > 0 {
		u := wl[0]
		wl = wl[1:]
		for _, e := range u.Out {
			if e.Kind != callgraph.KindFuncValue {
				demote(e.Callee)
			}
		}
	}
	return guarded
}

// --- check C: WaitGroup.Add inside the spawned goroutine ---

func reportGoroutineAdds(pass *analysis.ModulePass, g *callgraph.Graph, sites []goSite, addsDirect map[*callgraph.Node]bool) {
	adds := g.Propagate(func(n *callgraph.Node) bool { return addsDirect[n] })
	for _, site := range sites {
		call := site.stmt.Call
		if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				c, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isWaitGroupAdd(calleeOf(pass, c)) {
					pass.Reportf(c.Pos(),
						"sync.WaitGroup.Add inside the spawned goroutine races Wait; Add before the go statement, Done inside")
					return true
				}
				for _, callee := range g.Callees(c) {
					if adds[callee] {
						pass.Reportf(c.Pos(),
							"sync.WaitGroup.Add reachable inside the spawned goroutine (via %s); Add before the go statement",
							callee.Name())
						break
					}
				}
				return true
			})
			continue
		}
		if isWaitGroupAdd(calleeOf(pass, call)) {
			pass.Reportf(site.stmt.Pos(),
				"sync.WaitGroup.Add inside the spawned goroutine races Wait; Add before the go statement, Done inside")
			continue
		}
		for _, callee := range g.Callees(call) {
			if adds[callee] {
				pass.Reportf(site.stmt.Pos(),
					"sync.WaitGroup.Add reachable inside the spawned goroutine (via %s); Add before the go statement",
					callee.Name())
				break
			}
		}
	}
}

// --- shared helpers ---

// calleeOf resolves a call's static callee function or method, nil for
// dynamic calls.
func calleeOf(pass *analysis.ModulePass, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isWaitGroupAdd matches (*sync.WaitGroup).Add.
func isWaitGroupAdd(fn *types.Func) bool {
	if fn == nil || fn.Name() != "Add" {
		return false
	}
	recv := methodRecvNamed(fn)
	return recv != nil && recv.Obj().Pkg() != nil &&
		recv.Obj().Pkg().Path() == "sync" && recv.Obj().Name() == "WaitGroup"
}

// methodRecvNamed returns the named receiver type of a method, through one
// pointer, or nil for non-methods.
func methodRecvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
