// Package suite is the analyzer catalogue: the one list cmd/rwlint runs,
// TestDeterminismInvariants enforces on the tree, and
// TestAnalyzersFireOnPlantedViolations proves can fire on it. Each entry
// guards an invariant DESIGN.md "Static analysis" states.
package suite

import (
	"routerwatch/internal/analysis"
	"routerwatch/internal/analysis/envpurity"
	"routerwatch/internal/analysis/errsink"
	"routerwatch/internal/analysis/globalrand"
	"routerwatch/internal/analysis/hotpathalloc"
	"routerwatch/internal/analysis/mapyield"
	"routerwatch/internal/analysis/nilinstrument"
	"routerwatch/internal/analysis/walltime"
)

// Analyzers is the catalogue in run order: the per-package syntactic passes
// first, then the module-wide call-graph analyzers (which share one cached
// call graph through the driver session).
var Analyzers = []*analysis.Analyzer{
	globalrand.Analyzer,
	hotpathalloc.Analyzer,
	walltime.Analyzer,
	mapyield.Analyzer,
	nilinstrument.Analyzer,
	envpurity.Analyzer,
	errsink.Analyzer,
}
