package routerwatch

import (
	"testing"

	"routerwatch/internal/analysis"
	"routerwatch/internal/analysis/driver"
	"routerwatch/internal/analysis/envpurity"
	"routerwatch/internal/analysis/errsink"
	"routerwatch/internal/analysis/globalrand"
	"routerwatch/internal/analysis/hotpathalloc"
	"routerwatch/internal/analysis/load"
	"routerwatch/internal/analysis/lockguard"
	"routerwatch/internal/analysis/mapyield"
	"routerwatch/internal/analysis/nilinstrument"
	"routerwatch/internal/analysis/walltime"
)

// TestDeterminismInvariants drives the rwlint analyzer suite over the
// whole module from inside `go test ./...`, so the determinism invariants
// are enforced even when nobody runs the standalone binary. It replaces
// the old parser-only TestNoGlobalRand walk (rand_hygiene_test.go), which
// missed aliased imports, dot imports and math/rand/v2 and covered only
// one of the invariants; the type-aware analyzers close those holes. See
// DESIGN.md "Static analysis" for the invariant catalogue and cmd/rwlint
// for the full multichecker (which additionally runs the nilness and
// shadow passes).
func TestDeterminismInvariants(t *testing.T) {
	l := load.New(load.Config{Dir: ".", Module: "routerwatch"})
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}

	// The protocol runtime is the layer third-party Env backends plug
	// into; it must be in the analyzed set so they inherit the
	// determinism contract (no global math/rand, no wall clock) from day
	// one. Pin its presence: a loader change that silently skipped it
	// would turn the analyzers below into a false green.
	analyzed := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		analyzed[p.Path] = true
	}
	for _, want := range []string{
		"routerwatch/internal/protocol",
		"routerwatch/internal/protocol/catalog",
		// The adversary layers: injected-RNG discipline in the attack
		// behaviours and the mutation campaign is what makes fixed-seed
		// campaigns bitwise reproducible, so both stay pinned under the
		// globalrand/walltime analyzers.
		"routerwatch/internal/attack",
		"routerwatch/internal/mutation",
		// The capture subsystem replays recorded traffic under the same
		// determinism contract the simulator honors: TraceEnv is an Env
		// backend, so its clock, RNG streams and replay pump must stay
		// free of global rand and wall-clock reads.
		"routerwatch/internal/capture",
		// The trial fan-out and the simulator core are where the
		// interprocedural analyzers bite: runner spawns the goroutines
		// lockguard audits, and sim hosts the Env-attached call chains
		// envpurity sweeps. Pin both so a load regression cannot shrink
		// the call graph out from under them.
		"routerwatch/internal/runner",
		"routerwatch/internal/sim",
		// The batched hot path: auth's scratch-buffer MAC batching and
		// summary's mergeable sketches sit on every per-round signing and
		// exchange path, so both stay pinned under the alloc/purity
		// analyzers.
		"routerwatch/internal/auth",
		"routerwatch/internal/summary",
	} {
		if !analyzed[want] {
			t.Errorf("package %s missing from the analyzed set", want)
		}
	}

	diags, err := driver.Run(l, pkgs, []*analysis.Analyzer{
		globalrand.Analyzer,
		hotpathalloc.Analyzer,
		walltime.Analyzer,
		mapyield.Analyzer,
		nilinstrument.Analyzer,
		// The interprocedural wave: one shared call graph (built once per
		// driver session) feeding the Env-purity sweep and the two
		// concurrency/error-handling analyzers.
		envpurity.Analyzer,
		lockguard.Analyzer,
		errsink.Analyzer,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", driver.Format(l.Fset, d))
	}
}
