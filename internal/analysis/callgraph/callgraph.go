// Package callgraph builds a conservative, type-aware call graph over the
// packages the analysis loader produced, for the interprocedural analyzers
// (envpurity, errsink). Precision is traded for simplicity in three
// documented ways:
//
//   - Static calls resolve exactly. Calls through an interface method
//     resolve to the implemented-by set: every named type in the loaded
//     tree whose method set satisfies the method's interface contributes an
//     edge, plus one edge to the abstract interface method itself (so
//     analyzers can attach facts to e.g. io.Writer.Write, whose
//     implementations outside the tree are invisible).
//   - Function values are tracked flow-insensitively: referencing a
//     function without calling it (assigning it, passing it as an argument,
//     storing it in a struct) adds a KindFuncValue edge from the
//     referencing function. For reachability this is sound for tree-local
//     values — a value cannot be called before some reachable code took a
//     reference — and deliberately over-approximates: a reference counts
//     as a potential call.
//   - Function literals are folded into the enclosing declared function:
//     a closure's calls become its parent's calls. Reachability again
//     over-approximates (the closure might never run), never misses.
//
// Known soundness gap: package-level variable initializers (var x = f())
// belong to no declared function and contribute no edges. The tree keeps
// such initializers effect-free; see DESIGN.md "Interprocedural analysis".
//
// Out-of-tree (standard library) functions appear as leaf nodes — the
// loader skips their bodies — which is exactly what the analyzers need:
// an edge into time.Now is a finding, not a traversal.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"routerwatch/internal/analysis"
	"routerwatch/internal/analysis/load"
)

// Kind classifies how an edge's callee can be invoked from its caller.
type Kind uint8

const (
	// KindStatic is a direct call of a known function or concrete method.
	KindStatic Kind = iota
	// KindInterface is a call through an interface method, resolved to one
	// member of the implemented-by set (or to the abstract method itself).
	KindInterface
	// KindFuncValue is a reference to a function as a value — a potential
	// call from wherever the value flows.
	KindFuncValue
)

func (k Kind) String() string {
	switch k {
	case KindStatic:
		return "static"
	case KindInterface:
		return "interface"
	default:
		return "funcvalue"
	}
}

// Edge is one potential caller→callee relation, anchored at the source
// position that induced it (the call or the value reference).
type Edge struct {
	Caller *Node
	Callee *Node
	Pos    token.Pos
	Kind   Kind
}

// Node is one function or method. In-tree nodes carry their declaration;
// out-of-tree (stdlib) and abstract interface-method nodes are leaves.
type Node struct {
	// Fn is the canonical type-checker object for the function.
	Fn *types.Func
	// Pkg is the loaded package declaring the function, nil out of tree.
	Pkg *load.Package
	// Decl is the function's declaration, nil out of tree. Function
	// literals are folded into the enclosing declaration's node.
	Decl *ast.FuncDecl
	// Out and In are the node's edges, in deterministic build order.
	Out []*Edge
	In  []*Edge
}

// InTree reports whether the node's body was analyzed (declared in one of
// the loaded packages).
func (n *Node) InTree() bool { return n.Decl != nil }

// IsAbstract reports whether the node is an interface method — a contract
// with no body anywhere.
func (n *Node) IsAbstract() bool {
	sig, ok := n.Fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}

// Name renders the function for diagnostics: "(pkg.T).M" or "pkg.F" with
// the module prefix stripped for readability.
func (n *Node) Name() string {
	return strings.ReplaceAll(n.Fn.FullName(), "routerwatch/", "")
}

// Graph is the whole-module call graph.
type Graph struct {
	Fset *token.FileSet

	nodes map[*types.Func]*Node
	order []*Node // deterministic creation order
	sites map[*ast.CallExpr][]*Node

	concrete     []*types.Named          // every named non-interface type in the tree
	implementers map[*types.Func][]*Node // interface method → implementing methods
}

type cacheKey struct{}

// Of returns the module pass's call graph, building it on first use and
// sharing it across every module analyzer of the driver session.
func Of(pass *analysis.ModulePass) *Graph {
	return pass.Cache.Get(cacheKey{}, func() any {
		return Build(pass.Fset, pass.TypesInfo, pass.Pkgs)
	}).(*Graph)
}

// Build constructs the call graph for the loaded packages.
func Build(fset *token.FileSet, info *types.Info, pkgs []*load.Package) *Graph {
	g := &Graph{
		Fset:         fset,
		nodes:        make(map[*types.Func]*Node),
		sites:        make(map[*ast.CallExpr][]*Node),
		implementers: make(map[*types.Func][]*Node),
	}
	g.collectTypes(pkgs)

	// Pass 1: a node per declared function, in package/file/decl order, so
	// node order — and with it every traversal — is deterministic.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
					n := g.node(fn)
					n.Pkg, n.Decl = pkg, fd
				}
			}
		}
	}

	// Pass 2: edges.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.walk(g.nodes[fn], fd.Body, info)
			}
		}
	}
	return g
}

// collectTypes gathers every named concrete type declared in the tree, the
// candidate set for interface-dispatch resolution.
func (g *Graph) collectTypes(pkgs []*load.Package) {
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() { // Names is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			g.concrete = append(g.concrete, named)
		}
	}
}

// node returns the graph node for fn, creating a leaf on first sight.
func (g *Graph) node(fn *types.Func) *Node {
	if n, ok := g.nodes[fn]; ok {
		return n
	}
	// Canonicalize generic instances to their origin so facts attach once.
	if orig := fn.Origin(); orig != fn {
		fn = orig
		if n, ok := g.nodes[fn]; ok {
			return n
		}
	}
	n := &Node{Fn: fn}
	g.nodes[fn] = n
	g.order = append(g.order, n)
	return n
}

func (g *Graph) edge(from, to *Node, pos token.Pos, kind Kind) {
	e := &Edge{Caller: from, Callee: to, Pos: pos, Kind: kind}
	from.Out = append(from.Out, e)
	to.In = append(to.In, e)
}

// walk adds the edges induced by one function body (closures included).
func (g *Graph) walk(cur *Node, body *ast.BlockStmt, info *types.Info) {
	// Identify the terminal identifier of every call's callee expression,
	// so the identifier sweep below can tell calls from value references.
	callees := make(map[*ast.Ident]*ast.CallExpr)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := unparen(call.Fun).(type) {
		case *ast.Ident:
			callees[fun] = call
		case *ast.SelectorExpr:
			callees[fun.Sel] = call
		case *ast.IndexExpr: // generic instantiation f[T](...)
			switch x := unparen(fun.X).(type) {
			case *ast.Ident:
				callees[x] = call
			case *ast.SelectorExpr:
				callees[x.Sel] = call
			}
		case *ast.IndexListExpr: // f[T1, T2](...)
			switch x := unparen(fun.X).(type) {
			case *ast.Ident:
				callees[x] = call
			case *ast.SelectorExpr:
				callees[x.Sel] = call
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok { // error-typed or builtin-shaped; nothing to resolve
			return true
		}
		call, isCall := callees[id]
		dispatch := sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
		kind := KindStatic
		switch {
		case !isCall:
			kind = KindFuncValue
		case dispatch:
			kind = KindInterface
		}
		if dispatch {
			abstract := g.node(fn)
			targets := []*Node{abstract}
			g.edge(cur, abstract, id.Pos(), kind)
			for _, impl := range g.resolve(fn) {
				g.edge(cur, impl, id.Pos(), kind)
				targets = append(targets, impl)
			}
			if isCall {
				g.sites[call] = targets
			}
			return true
		}
		callee := g.node(fn)
		g.edge(cur, callee, id.Pos(), kind)
		if isCall {
			g.sites[call] = []*Node{callee}
		}
		return true
	})
}

// resolve computes (and caches) the implemented-by set of one interface
// method: the corresponding concrete method of every named tree type whose
// method set satisfies the method's interface.
func (g *Graph) resolve(m *types.Func) []*Node {
	if impls, ok := g.implementers[m]; ok {
		return impls
	}
	impls := []*Node{}
	sig, _ := m.Type().(*types.Signature)
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	if iface != nil {
		for _, named := range g.concrete {
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				impls = append(impls, g.node(fn))
			}
		}
	}
	g.implementers[m] = impls
	return impls
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

// NodeOf returns the node for fn, or nil if the graph never saw it.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	if n, ok := g.nodes[fn]; ok {
		return n
	}
	return g.nodes[fn.Origin()]
}

// Nodes returns every node in deterministic build order.
func (g *Graph) Nodes() []*Node { return g.order }

// Callees returns the resolved callee set of one call expression: the
// static target, or the abstract method plus its implemented-by set for an
// interface call. Nil for dynamic calls through plain function values.
func (g *Graph) Callees(call *ast.CallExpr) []*Node { return g.sites[call] }

// Reachable is the result of a forward reachability sweep: for every
// reached node, the edge it was first discovered through (nil for roots),
// which reconstructs one shortest root→node call path.
type Reachable struct {
	from map[*Node]*Edge
	in   map[*Node]bool
}

// Reach runs a breadth-first sweep from the root set over every edge kind.
// Traversal order is deterministic: roots in the order given, out-edges in
// build order.
func (g *Graph) Reach(roots []*Node) *Reachable {
	r := &Reachable{from: make(map[*Node]*Edge), in: make(map[*Node]bool)}
	queue := make([]*Node, 0, len(roots))
	for _, n := range roots {
		if n != nil && !r.in[n] {
			r.in[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if !r.in[e.Callee] {
				r.in[e.Callee] = true
				r.from[e.Callee] = e
				queue = append(queue, e.Callee)
			}
		}
	}
	return r
}

// Has reports whether n was reached.
func (r *Reachable) Has(n *Node) bool { return r.in[n] }

// Path returns the discovery path from the nearest root to n: the sequence
// of nodes starting at a root and ending at n. Nil if n was not reached.
func (r *Reachable) Path(n *Node) []*Node {
	if !r.in[n] {
		return nil
	}
	var rev []*Node
	for cur := n; cur != nil; {
		rev = append(rev, cur)
		e := r.from[cur]
		if e == nil {
			break
		}
		cur = e.Caller
	}
	path := make([]*Node, len(rev))
	for i, n := range rev {
		path[len(rev)-1-i] = n
	}
	return path
}

// Propagate computes the least fixed point of
//
//	fact(f) = direct(f) || ∃ call edge f→g with fact(g)
//
// over static and interface edges (function-value references are not
// calls), i.e. "f transitively performs X". The result maps exactly the
// nodes for which the fact holds.
func (g *Graph) Propagate(direct func(*Node) bool) map[*Node]bool {
	fact := make(map[*Node]bool)
	var queue []*Node
	for _, n := range g.order {
		if direct(n) {
			fact[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.In {
			if e.Kind == KindFuncValue || fact[e.Caller] {
				continue
			}
			fact[e.Caller] = true
			queue = append(queue, e.Caller)
		}
	}
	return fact
}
