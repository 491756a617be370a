// Command mrsim runs one malicious-router detection scenario: pick a
// topology, a detection protocol, and an attack; watch the suspicions.
//
//	go run ./cmd/mrsim -protocol pik2 -attack drop -rate 1
//	go run ./cmd/mrsim -protocol pi2 -attack modify
//	go run ./cmd/mrsim -protocol chi -attack masked90
//	go run ./cmd/mrsim -protocol watchers -attack drop
//	go run ./cmd/mrsim -protocol fatih -trace fatih.json
//	go run ./cmd/mrsim -list-protocols
//	go run ./cmd/mrsim -scenario myrun.json
//
// Protocols are resolved through the internal/protocol registry
// (-list-protocols enumerates them), and every run — flag-driven or from
// a -scenario JSON file — goes through protocol.Run, so mrsim contains no
// protocol-specific wiring of its own.
//
// -protocol fatih runs the full Abilene/Fatih scenario (§5.3, Fig 5.7):
// OSPF convergence, the Kansas City compromise, Πk+2 detection and the
// alert-driven reroute.
//
// Observability: -metrics and -trace snapshot the run's counters and
// virtual-time event timeline (see internal/telemetry); -cpuprofile and
// -memprofile write pprof profiles. All instrumentation output goes to
// files or stderr — stdout is unchanged by these flags.
//
// Capture & replay: -record dumps the run as per-router pcap traces (a
// directory replayable with cmd/mrreplay), and -verdicts writes the full
// suspicion log one line per suspicion (detector.Log's transcript) — the
// byte-comparable artifact the replay smoke diffs against a trace replay
// of the same run. Both are single-run features.
//
// With -trials N > 1 the scenario is replayed over N independent seeds on a
// bounded worker pool (-parallel; default GOMAXPROCS, 1 = serial) and the
// aggregate detection statistics are reported. Trial i runs on its own
// simulator kernel with RNG stream sim.DeriveSeed(seed, i), so the numbers
// are identical for every -parallel value; per-trial metrics fold the same
// way (runner.MapFold).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"routerwatch/internal/capture"
	"routerwatch/internal/protocol"
	_ "routerwatch/internal/protocol/catalog"
	"routerwatch/internal/runner"
	"routerwatch/internal/stats"
	"routerwatch/internal/telemetry"
)

// outcome is one trial's result.
type outcome struct {
	implicated bool
	// accused is 1 when some suspicion names a segment holding no
	// compromised router, a false accusation, and 0 otherwise.
	accused int
	// firstAt is the first suspicion time (0 if none).
	firstAt time.Duration
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mrsim: ")

	protoName := flag.String("protocol", "pik2", "pik2 | pi2 | chi | watchers | fatih (see -list-protocols)")
	attackName := flag.String("attack", "drop", "drop | modify | reorder | fabricate | syn | masked90 | none")
	rate := flag.Float64("rate", 1, "drop probability for the drop attack")
	seed := flag.Int64("seed", 1, "simulation seed")
	dur := flag.Duration("duration", 30*time.Second, "simulated duration")
	trials := flag.Int("trials", 1, "independent trials (per-trial derived seeds)")
	parallel := flag.Int("parallel", 0, "worker pool size for -trials (0 = GOMAXPROCS, 1 = serial)")
	scenario := flag.String("scenario", "", "run a declarative scenario file (JSON Spec) instead of the flag-built one")
	record := flag.String("record", "", "record per-router pcap traces into this directory (single-run only; replay with mrreplay)")
	verdicts := flag.String("verdicts", "", "write the full suspicion log, one per line, to this file (single-run only)")
	list := flag.Bool("list-protocols", false, "list the registered protocols and exit")
	tf := telemetry.RegisterFlags(flag.CommandLine, "trace")
	flag.Parse()

	if *list {
		for _, name := range protocol.Names() {
			d, _ := protocol.Lookup(name)
			fmt.Printf("%-14s %s\n", name, d.Summary)
		}
		return
	}

	spec, err := buildSpec(*scenario, *protoName, *attackName, *rate, *seed, *dur)
	if err != nil {
		log.Fatal(err)
	}

	if tf.CPUProfile != "" {
		stop, err := telemetry.StartCPUProfile(tf.CPUProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
	}

	if *trials <= 1 {
		tel := tf.NewSet()
		res := runSpec(spec, true, tel, *record)
		report(res)
		if *verdicts != "" {
			if err := os.WriteFile(*verdicts, []byte(res.Log.String()), 0o644); err != nil {
				log.Fatal(err)
			}
		}
		if err := tf.Finish(tel); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Aggregate mode folds per-trial registries deterministically; a trace
	// ring shared across concurrent kernels would interleave unrelated
	// virtual timelines, so -trace is a single-run feature — as are -record
	// (one trace directory describes one run) and -verdicts.
	if tf.Trace != "" {
		fmt.Fprintln(os.Stderr, "mrsim: -trace applies to single runs; ignoring it for -trials > 1")
	}
	if *record != "" {
		fmt.Fprintln(os.Stderr, "mrsim: -record applies to single runs; ignoring it for -trials > 1")
	}
	if *verdicts != "" {
		fmt.Fprintln(os.Stderr, "mrsim: -verdicts applies to single runs; ignoring it for -trials > 1")
	}
	var foldReg *telemetry.Registry
	if tf.Metrics != "" {
		foldReg = telemetry.NewRegistry()
	}
	outs, rep := runner.MapFold(runner.Config{Workers: *parallel, BaseSeed: spec.Seed}, *trials, foldReg,
		func(tr runner.Trial, reg *telemetry.Registry) outcome {
			var tel *telemetry.Set
			if reg != nil {
				tel = &telemetry.Set{Metrics: reg}
			}
			s := *spec
			s.Seed = tr.Seed
			return summarize(runSpec(&s, false, tel, ""))
		})

	accused, implicated := 0, 0
	var first stats.Folded
	for _, o := range outs {
		accused += o.accused
		if o.implicated {
			implicated++
		}
		if o.firstAt > 0 {
			first.Add(o.firstAt.Seconds())
		}
	}
	fmt.Printf("%d trials of %s/%s (base seed %d):\n", *trials, spec.Protocol, *attackName, spec.Seed)
	fmt.Printf("  accused a correct router: %d/%d\n", accused, *trials)
	fmt.Printf("  faulty implicated: %d/%d\n", implicated, *trials)
	if first.N() > 0 {
		fmt.Printf("  first suspicion: mean %.2fs, median %.2fs, max %.2fs\n",
			first.Mean(), first.Median(), first.Max())
	}
	fmt.Fprintf(os.Stderr,
		"mrsim: %d workers: wall %.1fs, cumulative %.1fs, speedup %.2fx, utilization %.0f%%\n",
		rep.Workers, rep.Wall.Seconds(), rep.CumTrial.Seconds(), rep.Speedup(), 100*rep.Utilization())
	if err := tf.Finish(&telemetry.Set{Metrics: foldReg}); err != nil {
		log.Fatal(err)
	}
}

// buildSpec assembles the declarative scenario: from a -scenario file when
// given, otherwise the protocol's canonical DefaultSpec with the flags laid
// over it.
func buildSpec(file, protoName, attackName string, rate float64, seed int64, dur time.Duration) (*protocol.Spec, error) {
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return protocol.DecodeSpec(data)
	}

	d, err := protocol.Lookup(protoName)
	if err != nil {
		return nil, err
	}
	if d.DefaultSpec == nil {
		return nil, fmt.Errorf("protocol %q has no flag-built scenario; use -scenario", protoName)
	}
	spec := d.DefaultSpec(seed, attackName == "none")

	if d.Scenario != nil {
		// A canonical scenario (χ, Fatih) fixes its own attack parameters —
		// χ's drop experiment runs at its 20%, -rate tunes the path-segment
		// scenarios only — so the flag only picks the attack by name;
		// anything the scenario does not know it rejects itself. Fatih's
		// attack starts at 117 s, so durations below a minute fall back to
		// its canonical 240 s.
		if attackName != "none" && attackName != "drop" {
			spec.Attack = &protocol.AttackSpec{Kind: attackName}
		}
		if protoName != "fatih" || dur >= time.Minute {
			spec.Duration = protocol.Duration(dur)
		}
		return spec, nil
	}

	// Path-segment protocols run on a 5-router line with the middle
	// router compromised.
	spec.Duration = protocol.Duration(dur)
	spec.Traffic[0].Count = int(dur.Seconds() * 500)
	switch attackName {
	case "drop":
		spec.Attack.Rate = rate
	case "modify":
		spec.Attack = &protocol.AttackSpec{
			Kind: "modify", Node: 2, Start: protocol.Duration(5 * time.Second),
		}
	case "reorder":
		spec.Attack = &protocol.AttackSpec{
			Kind: "reorder", Node: 2, Select: "data",
			Jitter: protocol.Duration(10 * time.Millisecond),
		}
	case "fabricate":
		spec.Attack = &protocol.AttackSpec{Kind: "fabricate", Node: 2, Src: 0, Dst: 4}
	case "none":
	default:
		return nil, fmt.Errorf("attack %q not available for path-segment protocols", attackName)
	}
	return spec, nil
}

// runSpec executes one trial and returns its result: the suspicion log and
// the compromised routers. verbose enables the single-run narration; recordDir,
// when non-empty, dumps per-router pcap traces of the run there.
func runSpec(spec *protocol.Spec, verbose bool, tel *telemetry.Set, recordDir string) *protocol.Result {
	run := protocol.RunOptions{Telemetry: tel}
	if verbose {
		run.Progress = func(format string, args ...any) { fmt.Printf(format, args...) }
	}
	var rec *capture.Recorder
	if recordDir != "" {
		rec = capture.NewRecorder(recordDir, capture.RecorderOptions{Gzip: true})
		run.BeforeRun = func(r *protocol.Result) {
			if err := rec.Attach(r.Net); err != nil {
				log.Fatal(err)
			}
		}
	}
	res, err := protocol.Run(spec, run)
	if err != nil {
		log.Fatal(err)
	}
	if rec != nil {
		if err := rec.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mrsim: recorded trace in %s\n", recordDir)
	}
	return res
}

// summarize condenses a trial's result into the aggregate-mode outcome.
func summarize(res *protocol.Result) outcome {
	o := outcome{firstAt: res.Log.FirstAt()}
	for _, seg := range res.Log.Segments() {
		if seg.Contains(res.Faulty) {
			o.implicated = true
		}
		if !res.FaultyContains(seg) {
			o.accused = 1
		}
	}
	return o
}

func report(res *protocol.Result) {
	fmt.Println()
	if err := res.Log.WriteReport(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if res.Log.Len() > 0 {
		o := summarize(res)
		fmt.Printf("\nfaulty router %v implicated: %v\n", res.Faulty, o.implicated)
		fmt.Printf("accused a correct router: %d/1\n", o.accused)
	}
}
