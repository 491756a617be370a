// Package hotpathalloc rejects per-call hash construction (hmac.New,
// sha256.New, and friends) outside a short allowlist of setup functions.
// The simulator's per-packet path signs, verifies, and deduplicates
// millions of messages per trial: one hash constructor on that path costs
// an allocation (plus key schedule, for HMAC) per message, which is exactly
// the steady-state garbage the zero-allocation hot path was built to
// eliminate. Hot-path code precomputes pad states once per key and restores
// them into a per-owner scratch digest (see internal/auth's macState and
// DESIGN.md "Hot path"); constructors belong only in the setup
// functions that build those reusable states.
//
// The allowlist (Allow) names the construction-legitimate functions as
// package-path suffixes narrowed to one function ("pkg:Func"). Test files
// are never loaded, so reference implementations in tests stay free to
// call crypto/hmac directly.
package hotpathalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"routerwatch/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "reject per-call hash constructors outside allowlisted setup functions",
	Run:  run,
}

// Allow lists the functions where hash construction is legitimate — setup
// paths that run once per key or per simulation, not per message — as
// package-path suffixes narrowed to one function ("pkg:Func").
var Allow = []string{
	"internal/auth:newMACState",     // pad-state precomputation, once per key
	"internal/auth:derive",          // key derivation, once per key
	"internal/auth:NewAuthority",    // per-Authority scratch digest
	"internal/consensus:NewService", // per-Service digest scratch
}

// banned maps constructor packages to the functions that allocate a fresh
// hash state. Streaming writes to an existing hash.Hash, one-shot helpers
// like sha256.Sum256, and packet.NewHasher (a stateless value) stay legal.
var banned = map[string]map[string]bool{
	"crypto/hmac":   {"New": true},
	"crypto/sha256": {"New": true, "New224": true},
	"crypto/sha512": {"New": true, "New384": true, "New512_224": true, "New512_256": true},
	"crypto/sha1":   {"New": true},
	"crypto/md5":    {"New": true},
	"hash/fnv": {
		"New32": true, "New32a": true,
		"New64": true, "New64a": true,
		"New128": true, "New128a": true,
	},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if allowed(pass, fd.Name.Name) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pass.TypesInfo.Uses[id]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				fns := banned[obj.Pkg().Path()]
				if fns == nil {
					return true
				}
				fn, ok := obj.(*types.Func)
				if !ok || !fns[fn.Name()] {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true
				}
				pass.Reportf(id.Pos(),
					"%s.%s constructs a hash per call; hot paths must reuse a precomputed state or scratch digest (allowlist: hotpathalloc.Allow, see DESIGN.md \"Hot path\")",
					obj.Pkg().Path(), fn.Name())
				return true
			})
		}
	}
	return nil
}

// allowed reports whether the named function in this package falls under an
// Allow entry. Matching is by bare function name: methods are matched by
// their method name.
func allowed(pass *analysis.Pass, fn string) bool {
	for _, entry := range Allow {
		pkgPart, fnPart, ok := strings.Cut(entry, ":")
		if !ok || fnPart != fn {
			continue
		}
		if pass.PkgPath == pkgPart || strings.HasSuffix(pass.PkgPath, "/"+pkgPart) {
			return true
		}
	}
	return false
}
