// Package harness is rwbench's measuring half. It lives in _test.go files
// because it reads the wall clock, which the module's walltime lint bans
// from every non-test file outside its allowlist: rwbench builds this
// package with `go test -c` and runs the binary once per workload and mode.
// Started without -workload the binary is an ordinary test binary and runs
// the smoke tests.
package harness

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"testing"

	"routerwatch/bench/result"
)

var (
	flagWorkload = flag.String("workload", "", "workload to run (empty: run the package's tests)")
	flagMode     = flag.String("mode", "untraced", "untraced (end-to-end metrics) or traced (per-layer metrics)")
	flagSeed     = flag.Int64("seed", 1, "workload seed")
	flagSeconds  = flag.Float64("seconds", 10, "how long to measure")
	flagIters    = flag.Int("iters", 0, "run exactly this many timed iterations instead of measuring for -seconds")
)

func TestMain(m *testing.M) {
	flag.Parse()
	if *flagWorkload == "" {
		os.Exit(m.Run())
	}
	if err := harnessMain(); err != nil {
		fmt.Fprintln(os.Stderr, "harness:", err)
		os.Exit(1)
	}
}

func harnessMain() error {
	// rwbench starts the binary in the bench directory.
	cfg := config{dir: ".", seed: *flagSeed, seconds: *flagSeconds, iters: *flagIters}
	var (
		run *result.Run
		err error
	)
	switch *flagMode {
	case "untraced":
		run, err = runUntraced(cfg, *flagWorkload)
	case "traced":
		run, err = runTraced(cfg, *flagWorkload)
	default:
		err = fmt.Errorf("unknown mode %q", *flagMode)
	}
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(run, "", " ")
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(data, '\n'))
	return err
}

// newRun starts a result record for w.
func newRun(w *workload, mode string) *result.Run {
	return &result.Run{
		Workload: w.name, Mode: mode, Seed: w.cfg.seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
}

// peakRSSMB is the process's high-water resident set in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
