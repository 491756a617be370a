// Package envpurity is the interprocedural closure of the walltime and
// globalrand invariants: every function transitively reachable from code
// the protocol runtime attaches — an Env or Backend implementation, the
// function that constructs one, or anything handed to protocol.Register —
// must obtain time, randomness and signing material only through the
// protocol.Env contract. The per-package analyzers catch a direct time.Now
// in detector code; this one catches the helper two hops below a Backend
// method, the utility reached through an interface
// dispatch, and reaches of packages the syntactic lints do not watch at
// all (crypto/rand, whose nondeterminism would silently break bitwise
// replay of signing-dependent verdicts).
//
// Roots are derived from the loaded tree, not hard-coded: any package
// named "protocol" that declares Env / Backend interfaces defines the
// contract, every named type satisfying one of them
// contributes its contract methods, every function with a result whose type
// is or implements one of them is a root (a constructor: what it reaches
// builds the environment protocols then run on), and every function that
// calls Register from such a package is a root (its registered descriptors
// and closures are reached through the call graph's function-value edges).
// Violations report the banned call site with one shortest root→site call
// path.
//
// Allow lists individually justified exemptions by rendered function name.
package envpurity

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"routerwatch/internal/analysis"
	"routerwatch/internal/analysis/callgraph"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name:      "envpurity",
	Doc:       "reject wall-clock/global-RNG/crypto-rand use anywhere reachable from Env-attached protocol code",
	RunModule: run,
}

// Allow maps rendered function names (callgraph.Node.Name: "pkg.F" or
// "(pkg.T).M", module prefix stripped) to a justification for why the
// function may touch a banned source even though it is Env-reachable.
// Keep every entry justified — the tree currently needs none.
var Allow = map[string]string{}

// bannedTime are the package-level time functions that observe or wait on
// the real clock (walltime's set).
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// contractInterfaces are the interface names that define the runtime
// contract when declared in a package named "protocol".
var contractInterfaces = []string{"Env", "Backend"}

func run(pass *analysis.ModulePass) error {
	g := callgraph.Of(pass)
	roots := collectRoots(pass, g)
	if len(roots) == 0 {
		return nil // no protocol contract in the loaded tree
	}
	reach := g.Reach(roots)

	type finding struct {
		pos  token.Pos
		what string
	}
	seen := make(map[finding]bool)
	report := func(pos token.Pos, what string, n *callgraph.Node) {
		f := finding{pos, what}
		if _, allowed := Allow[n.Name()]; seen[f] || allowed {
			return
		}
		seen[f] = true
		pass.Reportf(pos,
			"%s reached from Env-attached code (%s); obtain time/randomness through protocol.Env (allowlist: envpurity.Allow)",
			what, renderPath(reach.Path(n)))
	}

	for _, n := range g.Nodes() {
		if !n.InTree() || !reach.Has(n) {
			continue
		}
		for _, e := range n.Out {
			if what, bad := banned(e.Callee.Fn); bad {
				report(e.Pos, what, n)
			}
		}
		// crypto/rand.Reader is a variable, not a call: scan the body.
		ast.Inspect(n.Decl, func(node ast.Node) bool {
			id, ok := node.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := pass.TypesInfo.Uses[id].(*types.Var)
			if ok && v.Pkg() != nil && v.Pkg().Path() == "crypto/rand" && v.Name() == "Reader" {
				report(id.Pos(), "crypto/rand.Reader", n)
			}
			return true
		})
	}
	return nil
}

// collectRoots derives the Env-attached root set from the loaded tree.
func collectRoots(pass *analysis.ModulePass, g *callgraph.Graph) []*callgraph.Node {
	var ifaces []*types.Interface
	for _, pkg := range pass.Pkgs {
		if pkg.Types == nil || pkg.Types.Name() != "protocol" {
			continue
		}
		for _, name := range contractInterfaces {
			tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, iface)
			}
		}
	}

	var roots []*callgraph.Node
	add := func(n *callgraph.Node) {
		if n != nil && n.InTree() {
			roots = append(roots, n)
		}
	}

	// Contract methods of every implementing named type in the tree.
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
			if !ok || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			for _, iface := range ifaces {
				if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
					if fn, ok := obj.(*types.Func); ok {
						add(g.NodeOf(fn))
					}
				}
			}
		}
	}

	for _, n := range g.Nodes() {
		if !n.InTree() {
			continue
		}
		// Constructors: a function handing out a contract implementation.
		if constructs(n.Fn, ifaces) {
			add(n)
			continue
		}
		// Registrars: anything calling protocol.Register roots its
		// registered descriptors via function-value edges.
		for _, e := range n.Out {
			callee := e.Callee.Fn
			if callee.Pkg() != nil && callee.Pkg().Name() == "protocol" && callee.Name() == "Register" {
				add(n)
				break
			}
		}
	}
	return roots
}

// constructs reports whether fn has a result whose type is or implements a
// contract interface.
func constructs(fn *types.Func, ifaces []*types.Interface) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		t := sig.Results().At(i).Type()
		for _, iface := range ifaces {
			if types.Implements(t, iface) {
				return true
			}
		}
	}
	return false
}

// banned classifies a callee as a nondeterminism source.
func banned(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false // methods on explicit values (e.g. *rand.Rand) are the sanctioned pattern
	}
	switch pkg.Path() {
	case "time":
		if bannedTime[fn.Name()] {
			return "time." + fn.Name(), true
		}
	case "math/rand", "math/rand/v2":
		if !strings.HasPrefix(fn.Name(), "New") { // constructors build explicit generators
			return pkg.Path() + "." + fn.Name(), true
		}
	case "crypto/rand":
		return "crypto/rand." + fn.Name(), true
	}
	return "", false
}

// renderPath formats a root→site call path for the diagnostic.
func renderPath(path []*callgraph.Node) string {
	names := make([]string, len(path))
	for i, n := range path {
		names[i] = n.Name()
	}
	return "via " + strings.Join(names, " → ")
}
