package experiments

import (
	"fmt"
	"time"

	"routerwatch/internal/fatih"
	"routerwatch/internal/runner"
	"routerwatch/internal/stats"
)

// FatihTrialsResult aggregates n independent Fig 5.7 (Abilene) runs, each on
// its own simulator kernel with its own derived RNG stream — the
// statistically-meaningful form of the paper's single timeline plot.
type FatihTrialsResult struct {
	// N is the trial count; BaseSeed the seed the per-trial streams derive
	// from.
	N        int
	BaseSeed int64
	// Detected counts trials where the compromise was detected at all.
	Detected int
	// DetectLatency is FirstDetectionAt − AttackAt (seconds) across
	// detecting trials; RerouteLatency is RerouteAt − FirstDetectionAt.
	DetectLatency, RerouteLatency *stats.Folded
	// RTTShift is PostRerouteRTT − PreAttackRTT in milliseconds.
	RTTShift *stats.Folded
	// Report is the worker pool's timing summary.
	Report runner.Report
}

// FatihTrials runs n Abilene compromise scenarios in parallel. Trial i uses
// seed sim.DeriveSeed(baseSeed, i) (via runner.Trial.Seed), so the result —
// including every folded statistic — is bitwise identical for any worker
// count.
func FatihTrials(baseSeed int64, n, workers int, progress func(runner.Snapshot)) *FatihTrialsResult {
	// trialOut is the slice of a trial's timeline the statistics need.
	type trialOut struct {
		attackAt, detectedAt, rerouteAt time.Duration
		preRTT, postRTT                 time.Duration
	}
	outs, rep := runner.Map(runner.Config{Workers: workers, BaseSeed: baseSeed, Progress: progress},
		n, func(tr runner.Trial) trialOut {
			res := fatih.RunAbilene(fatih.ScenarioOptions{Seed: tr.Seed})
			return trialOut{
				attackAt: res.AttackAt, detectedAt: res.FirstDetectionAt, rerouteAt: res.RerouteAt,
				preRTT: res.PreAttackRTT, postRTT: res.PostRerouteRTT,
			}
		})

	res := &FatihTrialsResult{
		N:              n,
		BaseSeed:       baseSeed,
		DetectLatency:  &stats.Folded{},
		RerouteLatency: &stats.Folded{},
		RTTShift:       &stats.Folded{},
		Report:         rep,
	}
	for _, o := range outs {
		if o.detectedAt > 0 {
			res.Detected++
			res.DetectLatency.Add((o.detectedAt - o.attackAt).Seconds())
			if o.rerouteAt > 0 {
				res.RerouteLatency.Add((o.rerouteAt - o.detectedAt).Seconds())
			}
		}
		if o.preRTT > 0 && o.postRTT > 0 {
			res.RTTShift.Add(float64((o.postRTT - o.preRTT).Microseconds()) / 1000)
		}
	}
	return res
}

// Table renders the aggregate timeline statistics.
func (r *FatihTrialsResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Fig 5.7 × %d trials — Fatih detection/reroute latency (base seed %d)",
			r.N, r.BaseSeed),
		Header: []string{"metric", "mean", "median", "max", "n"},
	}
	row := func(name string, f *stats.Folded) {
		t.AddRow(name, fmt.Sprintf("%.2f", f.Mean()), fmt.Sprintf("%.2f", f.Median()),
			fmt.Sprintf("%.2f", f.Max()), f.N())
	}
	row("detection latency (s)", r.DetectLatency)
	row("reroute latency (s)", r.RerouteLatency)
	row("RTT shift (ms)", r.RTTShift)
	t.Notes = append(t.Notes,
		fmt.Sprintf("detected in %d/%d trials", r.Detected, r.N),
		"paper shape: detection within one 5 s round, reroute gated by the OSPF delay timer (≈5 s), RTT +≈6 ms")
	// Wall-clock timing lives in r.Report, not in the table: the rendered
	// table must stay byte-identical across worker counts.
	return t
}
