// Package runner is the parallel experiment-execution layer: it fans
// independent simulation trials out across a bounded worker pool while
// keeping every run bitwise reproducible.
//
// The determinism recipe has three parts, and every caller must follow it:
//
//  1. Each trial builds its own simulator kernel (network.New / sim.New) —
//     kernels share no state, so they may run concurrently (see
//     internal/sim's concurrency contract).
//  2. Each trial draws randomness only from its own derived stream,
//     Trial.Seed = sim.DeriveSeed(baseSeed, trialIndex). No trial ever
//     touches another trial's generator, so results do not depend on
//     execution order.
//  3. Results are placed by trial index, so Map's return value is ordered
//     whatever the pool size; aggregate statistics are a loop over it
//     (stats.Folded.Add), and the output is byte-for-byte identical to a
//     serial run with the same base seed — the regression suite asserts
//     exactly this for workers ∈ {1, 4, 8}.
//
// Workers default to GOMAXPROCS; Config.Workers = 1 is the serial escape
// hatch (trials run inline on the calling goroutine, no pool is spawned).
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"routerwatch/internal/sim"
)

// Trial identifies one unit of independent work handed to a worker.
type Trial struct {
	// Index is the trial's position in [0, n); results are ordered by it.
	Index int
	// Seed is the trial's private RNG stream, derived as
	// sim.DeriveSeed(Config.BaseSeed, Index). Trials must take all
	// randomness from sources seeded with it (directly or via further
	// DeriveSeed calls) and never from shared generators.
	Seed int64
}

// Config configures a fan-out.
type Config struct {
	// Workers bounds the pool; 0 means runtime.GOMAXPROCS(0), 1 runs
	// serially on the calling goroutine.
	Workers int
	// BaseSeed is the experiment seed from which all per-trial streams are
	// derived.
	BaseSeed int64
	// Progress, if set, is called after each trial completes. Calls are
	// serialized but may come from any worker goroutine.
	Progress func(Snapshot)
}

// Snapshot is a progress observation.
type Snapshot struct {
	// Done and Total count completed and scheduled trials.
	Done, Total int
	// Wall is the elapsed wall-clock time since the fan-out started.
	Wall time.Duration
	// CumTrial is the cumulative per-trial execution time so far — on an
	// idle multi-core host it grows up to Workers× faster than Wall.
	CumTrial time.Duration
}

// Report summarizes a completed fan-out.
type Report struct {
	// Workers is the pool size actually used.
	Workers int
	// Trials is the number of trials executed.
	Trials int
	// Wall is the fan-out's wall-clock duration.
	Wall time.Duration
	// CumTrial is the sum of per-trial execution times: the wall time a
	// serial run of the same work would have needed.
	CumTrial time.Duration
	// TrialDur holds each trial's execution time, by trial index.
	TrialDur []time.Duration
}

// Speedup is the observed parallel speedup: cumulative trial time over wall
// time (≈1 for a serial run, approaching Workers on an idle host).
func (r Report) Speedup() float64 {
	if r.Wall <= 0 {
		return 1
	}
	return float64(r.CumTrial) / float64(r.Wall)
}

// Utilization is the fraction of the pool's capacity spent inside trials.
func (r Report) Utilization() float64 {
	if r.Workers < 1 {
		return 0
	}
	return r.Speedup() / float64(r.Workers)
}

// Workers resolves the configured pool size.
func (c Config) workers(n int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Do runs f(0), ..., f(n-1) to completion on up to workers goroutines
// (0 = GOMAXPROCS, 1 = inline on the calling goroutine) and returns when
// all calls have finished. It is the synchronous parallel-for under
// routing's batched table computation: each f(i) must touch only state
// partitioned by i, in which case the fan-out is race-free and — because
// Do imposes a full join — invisible to the caller's determinism.
func Do(workers, n int, f func(int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// Map runs fn for trials 0..n-1 on the configured pool and returns the
// results ordered by trial index, plus a timing report. fn must be safe to
// call from multiple goroutines as long as it follows the package's
// isolation rules (own kernel, own RNG stream, no shared mutable state
// except slots keyed by Trial.Index).
func Map[T any](cfg Config, n int, fn func(Trial) T) ([]T, Report) {
	if n <= 0 {
		return nil, Report{Workers: cfg.workers(1)}
	}
	workers := cfg.workers(n)
	results := make([]T, n)
	durs := make([]time.Duration, n)
	start := time.Now()

	var cum atomic.Int64 // nanoseconds
	var progressMu sync.Mutex
	done := 0 // guarded by progressMu, so snapshots count up in call order
	report := func(idx int, d time.Duration) {
		durs[idx] = d
		cum.Add(int64(d))
		if cfg.Progress != nil {
			progressMu.Lock()
			done++
			cfg.Progress(Snapshot{
				Done:     done,
				Total:    n,
				Wall:     time.Since(start),
				CumTrial: time.Duration(cum.Load()),
			})
			progressMu.Unlock()
		}
	}
	// Do runs a single worker inline, in index order, on the calling
	// goroutine: the serial escape hatch.
	Do(workers, n, func(idx int) {
		t0 := time.Now()
		results[idx] = fn(Trial{Index: idx, Seed: sim.DeriveSeed(cfg.BaseSeed, uint64(idx))})
		report(idx, time.Since(t0))
	})

	return results, Report{
		Workers:  workers,
		Trials:   n,
		Wall:     time.Since(start),
		CumTrial: time.Duration(cum.Load()),
		TrialDur: durs,
	}
}
