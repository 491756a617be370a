package runner

import (
	"testing"
	"time"

	"routerwatch/internal/sim"
	"routerwatch/internal/stats"
)

// TestMapOrderedAndSeeded checks the core contract: results come back in
// trial order, and each trial sees its derived seed regardless of worker
// count.
func TestMapOrderedAndSeeded(t *testing.T) {
	type out struct {
		idx  int
		seed int64
	}
	for _, workers := range []int{1, 2, 4, 8} {
		res, rep := Map(Config{Workers: workers, BaseSeed: 99}, 50, func(tr Trial) out {
			return out{idx: tr.Index, seed: tr.Seed}
		})
		if len(res) != 50 || rep.Trials != 50 {
			t.Fatalf("workers=%d: %d results", workers, len(res))
		}
		for i, o := range res {
			if o.idx != i {
				t.Fatalf("workers=%d: result %d carries index %d", workers, i, o.idx)
			}
			if want := sim.DeriveSeed(99, uint64(i)); o.seed != want {
				t.Fatalf("workers=%d: trial %d seed %d want %d", workers, i, o.seed, want)
			}
		}
	}
}

// TestMapDeterministicAcrossWorkerCounts runs a small stochastic simulation
// per trial and asserts the full result vector, and the statistics folded
// from it, are bitwise identical for 1, 4 and 8 workers — and for 70
// workers on 70 trials, the pool size that used to overrun mrsim's
// hand-sized shard array.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers, n int) ([]float64, float64, float64) {
		res, rep := Map(Config{Workers: workers, BaseSeed: 7}, n, func(tr Trial) float64 {
			rng := sim.NewRNG(tr.Seed)
			// A little simulated work with trial-local randomness.
			s := sim.New()
			var acc float64
			for i := 0; i < 50; i++ {
				s.After(time.Duration(rng.Intn(1000))*time.Microsecond, func() {
					acc += rng.Float64()
				})
			}
			s.Run()
			return acc
		})
		if rep.Workers > workers {
			t.Fatalf("pool grew beyond request: %d > %d", rep.Workers, workers)
		}
		var f stats.Folded
		for _, v := range res {
			f.Add(v)
		}
		return res, f.Mean(), f.StdDev()
	}

	for _, tc := range []struct{ n, workers int }{{64, 4}, {64, 8}, {70, 70}} {
		base, mean1, sd1 := run(1, tc.n)
		got, mean, sd := run(tc.workers, tc.n)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: trial %d result %v differs from serial %v", tc.workers, i, got[i], base[i])
			}
		}
		if mean != mean1 || sd != sd1 {
			t.Fatalf("workers=%d: folded stats (%v, %v) differ from serial (%v, %v)", tc.workers, mean, sd, mean1, sd1)
		}
	}
}

func TestMapProgressAndReport(t *testing.T) {
	var snaps []Snapshot
	_, rep := Map(Config{Workers: 4, Progress: func(s Snapshot) {
		snaps = append(snaps, s)
	}}, 10, func(tr Trial) int {
		time.Sleep(time.Millisecond)
		return tr.Index
	})
	if len(snaps) != 10 {
		t.Fatalf("%d progress calls, want 10", len(snaps))
	}
	for i, s := range snaps {
		if s.Done != i+1 || s.Total != 10 {
			t.Fatalf("snapshot %d: done=%d total=%d", i, s.Done, s.Total)
		}
	}
	if rep.CumTrial < 10*time.Millisecond {
		t.Fatalf("cumulative trial time %v impossibly small", rep.CumTrial)
	}
	if len(rep.TrialDur) != 10 {
		t.Fatalf("per-trial durations: %d", len(rep.TrialDur))
	}
	if rep.Speedup() <= 0 || rep.Utilization() <= 0 || rep.Utilization() > 1.000001 {
		t.Fatalf("speedup=%v utilization=%v out of range", rep.Speedup(), rep.Utilization())
	}
}

func TestMapEdgeCases(t *testing.T) {
	res, rep := Map(Config{}, 0, func(Trial) int { return 1 })
	if res != nil || rep.Trials != 0 {
		t.Fatalf("n=0: res=%v trials=%d", res, rep.Trials)
	}
	// Workers capped to trial count.
	_, rep = Map(Config{Workers: 16}, 3, func(Trial) int { return 1 })
	if rep.Workers != 3 {
		t.Fatalf("workers=%d want 3", rep.Workers)
	}
	// Default worker count resolves to at least one.
	_, rep = Map(Config{}, 2, func(Trial) int { return 1 })
	if rep.Workers < 1 {
		t.Fatalf("workers=%d", rep.Workers)
	}
}
