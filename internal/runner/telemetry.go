package runner

import (
	"routerwatch/internal/telemetry"
)

// MapFold is Map plus per-trial telemetry: each trial receives a private
// registry so concurrent trials never share instrument state, and after the
// fan-out completes the per-trial registries are folded into dst in trial-
// index order — the telemetry analogue of a stats.Folded series. Because
// all instrument state is integer, the folded totals are bitwise identical
// to a serial run with the same base seed, whatever the pool size.
//
// A nil dst disables telemetry for the whole fan-out: every trial gets a
// nil registry (whose instruments are free no-ops) and no folding happens.
func MapFold[T any](cfg Config, n int, dst *telemetry.Registry, fn func(Trial, *telemetry.Registry) T) ([]T, Report) {
	if dst == nil {
		return Map(cfg, n, func(t Trial) T { return fn(t, nil) })
	}
	regs := make([]*telemetry.Registry, n)
	results, rep := Map(cfg, n, func(t Trial) T {
		reg := telemetry.NewRegistry()
		regs[t.Index] = reg
		return fn(t, reg)
	})
	for _, reg := range regs {
		dst.Merge(reg)
	}
	return results, rep
}
