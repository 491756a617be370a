// Package walltime rejects wall-clock reads (time.Now, time.Since,
// time.Sleep, time.After, ...) outside a short allowlist of packages whose
// job is to measure or schedule real time. The simulator, network,
// detectors and scenario code run on a virtual clock: a single wall-clock
// read in that code makes trial output depend on host speed and scheduling
// — the exact nondeterminism the parallel runner's bitwise-replay
// guarantee exists to rule out. time.Duration and friends remain fine
// everywhere; only the functions that observe or wait on the real clock
// are banned.
//
// The allowlist (Allow) names the wall-clock-legitimate locations:
// internal/runner reports wall-time throughput of the trial fan-out, and
// internal/telemetry's profile.go wires pprof. Entries match package-path
// suffixes, optionally narrowed to one file ("pkg:file.go"); see DESIGN.md
// "Static analysis" for how to extend it.
package walltime

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"routerwatch/internal/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "walltime",
	Doc:  "reject wall-clock reads outside the allowlisted wall-time packages",
	Run:  run,
}

// Allow lists the locations where wall-clock use is legitimate, as
// package-path suffixes with an optional ":file.go" narrowing.
var Allow = []string{
	"internal/runner",               // wall-time throughput of the trial fan-out
	"internal/telemetry:profile.go", // pprof start/stop wiring
	// rwlint times its own analyzers (the -timing flag and the JSON
	// report); lint infrastructure measuring itself never touches
	// simulation output.
	"cmd/rwlint:main.go",
}

// banned are the package-level time functions that observe or wait on the
// real clock. time.Duration arithmetic, formatting and parsing stay legal.
var banned = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

func run(pass *analysis.Pass) error {
	pass.Preorder(func(n ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
			return
		}
		fn, ok := obj.(*types.Func)
		if !ok || !banned[fn.Name()] {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return
		}
		if allowed(pass, id.Pos()) {
			return
		}
		pass.Reportf(id.Pos(),
			"time.%s reads the wall clock; simulation code must use virtual time (allowlist: DESIGN.md \"Static analysis\")",
			fn.Name())
	})
	return nil
}

// allowed reports whether the position falls under an Allow entry.
func allowed(pass *analysis.Pass, pos token.Pos) bool {
	file := filepath.Base(pass.Fset.Position(pos).Filename)
	for _, entry := range Allow {
		pkgPart, filePart, _ := strings.Cut(entry, ":")
		if pass.PkgPath != pkgPart && !strings.HasSuffix(pass.PkgPath, "/"+pkgPart) {
			continue
		}
		if filePart == "" || filePart == file {
			return true
		}
	}
	return false
}
