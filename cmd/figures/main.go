// Command figures regenerates every table and figure of the paper's
// evaluation. Without arguments it runs the full suite; with figure names
// (e.g. "5.2 6.7 red") it runs a subset.
//
//	go run ./cmd/figures                # everything (several minutes)
//	go run ./cmd/figures 5.2 5.4        # monitoring-state figures only
//	go run ./cmd/figures 5.7            # the Fatih timeline
//	go run ./cmd/figures 6.7 vs         # masked attack + χ-vs-threshold
//	go run ./cmd/figures -parallel 8    # fan figures out over 8 workers
//	go run ./cmd/figures -trials 16 5.7 # 16-seed Fatih latency statistics
//
// Figures fan out over a bounded worker pool (internal/runner; default
// GOMAXPROCS workers, -parallel=1 for the serial escape hatch). Each figure
// builds its own simulator kernels and derives its own seeds, so stdout is
// byte-identical for every -parallel value — only wall-clock time changes.
//
// Observability: -metrics folds every figure's simulator and detector
// counters into one deterministic snapshot (internal/telemetry); -cpuprofile
// and -memprofile write pprof profiles. Event tracing is per-run — use
// `mrsim -protocol fatih -trace` for a scenario timeline; here -trace would
// interleave unrelated figures and is rejected. All instrumentation output
// goes to files or stderr — stdout is unchanged by these flags.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"routerwatch/internal/experiments"
	"routerwatch/internal/runner"
	"routerwatch/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")

	seed := flag.Int64("seed", 1, "simulation seed")
	maxK := flag.Int("maxk", 8, "largest AdjacentFault(k) for Figs 5.2/5.4")
	series := flag.Bool("series", false, "also print full per-round/per-sample series")
	parallel := flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
	trials := flag.Int("trials", 0, "also run N multi-seed Fatih trials (aggregate Fig 5.7 statistics)")
	progress := flag.Bool("progress", false, "report per-figure completions and pool utilization on stderr")
	tf := telemetry.RegisterFlags(flag.CommandLine, "trace")
	flag.Parse()

	if tf.Trace != "" {
		log.Fatal("-trace traces a single scenario; use `mrsim -protocol fatih -trace` instead")
	}
	if tf.CPUProfile != "" {
		stop, err := telemetry.StartCPUProfile(tf.CPUProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
	}
	tel := tf.NewSet()

	var onProgress func(runner.Snapshot)
	if *progress {
		onProgress = func(s runner.Snapshot) {
			fmt.Fprintf(os.Stderr, "figures: %d/%d done, wall %.1fs, cumulative %.1fs\n",
				s.Done, s.Total, s.Wall.Seconds(), s.CumTrial.Seconds())
		}
	}

	// -trials runs only the trial sweep when no figure names are given
	// alongside it.
	if *trials > 0 && flag.NArg() == 0 {
		runTrials(*seed, *trials, *parallel, onProgress, *progress)
		finish(tf, tel)
		return
	}

	results, rep := experiments.RunSuite(experiments.SuiteOptions{
		Seed:      *seed,
		MaxK:      *maxK,
		Series:    *series,
		Workers:   *parallel,
		Progress:  onProgress,
		Telemetry: tel,
	}, flag.Args())
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "figures: no figure matches %q; known: %s\n",
			strings.Join(flag.Args(), " "), strings.Join(experiments.SuiteNames(), " "))
		os.Exit(2)
	}
	for _, r := range results {
		fmt.Print(r.Text)
	}
	if *progress {
		fmt.Fprintf(os.Stderr,
			"figures: %d figures on %d workers: wall %.1fs, cumulative %.1fs, speedup %.2fx, utilization %.0f%%\n",
			rep.Trials, rep.Workers, rep.Wall.Seconds(), rep.CumTrial.Seconds(),
			rep.Speedup(), 100*rep.Utilization())
	}

	if *trials > 0 {
		runTrials(*seed, *trials, *parallel, onProgress, *progress)
	}
	finish(tf, tel)
}

// finish writes the telemetry outputs, fatally on error.
func finish(tf *telemetry.Flags, tel *telemetry.Set) {
	if err := tf.Finish(tel); err != nil {
		log.Fatal(err)
	}
}

func runTrials(seed int64, n, parallel int, onProgress func(runner.Snapshot), progress bool) {
	res := experiments.FatihTrials(seed, n, parallel, onProgress)
	fmt.Println(res.Table())
	if progress {
		rep := res.Report
		fmt.Fprintf(os.Stderr,
			"trials: %d trials on %d workers: wall %.1fs, cumulative %.1fs, speedup %.2fx, utilization %.0f%%\n",
			rep.Trials, rep.Workers, rep.Wall.Seconds(), rep.CumTrial.Seconds(),
			rep.Speedup(), 100*rep.Utilization())
	}
}
