// Command mrreplay attaches a detection protocol to a recorded packet
// trace: the capture-and-replay counterpart of mrsim. Record a run with
// mrsim -record, then feed the detectors the recorded packet stream —
// suspicions come out byte-identical to the originating run, because a
// trace plus an attachment is a pure function of the recorded bytes.
//
//	go run ./cmd/mrsim -protocol pik2 -rate 0.3 -record /tmp/tr
//	go run ./cmd/mrreplay -trace /tmp/tr -protocol pik2
//	go run ./cmd/mrreplay -trace /tmp/tr -info
//
// Protocol options are given textually (-options "k=1,round=1s"), parsed
// by the same registry descriptors mrsim's scenario files use.
//
// Observability mirrors mrsim: -metrics snapshots counters (including
// rw_replay_events_total), -timeline dumps the virtual-time event trace
// (the -trace name is taken by the trace directory here), -cpuprofile and
// -memprofile write pprof profiles. All instrumentation goes to files or
// stderr; stdout carries only the report.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"routerwatch/internal/capture"
	"routerwatch/internal/detector"
	"routerwatch/internal/protocol"
	_ "routerwatch/internal/protocol/catalog"
	"routerwatch/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mrreplay: ")

	traceDir := flag.String("trace", "", "trace directory recorded by mrsim -record (required)")
	protoName := flag.String("protocol", "pik2", "registry protocol to attach (see mrsim -list-protocols)")
	options := flag.String("options", "", "protocol options as key=value pairs, comma separated (e.g. \"k=1,round=1s\")")
	dur := flag.Duration("duration", 0, "replay horizon (0 = the recorded duration)")
	verdicts := flag.String("verdicts", "", "write the full suspicion log, one per line, to this file")
	info := flag.Bool("info", false, "print the trace manifest and exit")

	// -trace names the trace directory here, so the event timeline answers
	// to -timeline.
	tf := telemetry.RegisterFlags(flag.CommandLine, "timeline")
	flag.Parse()

	if *traceDir == "" {
		log.Fatal("-trace is required: a directory recorded by mrsim -record")
	}

	if *info {
		meta, err := capture.ReadMeta(*traceDir)
		if err != nil {
			log.Fatal(err)
		}
		printInfo(meta)
		return
	}

	d, err := protocol.Lookup(*protoName)
	if err != nil {
		log.Fatal(err)
	}
	if d.Attach == nil {
		log.Fatalf("protocol %q only runs as a full scenario; it cannot attach to a trace", *protoName)
	}
	params, err := parseParams(*options)
	if err != nil {
		log.Fatal(err)
	}
	var opts any
	if len(params) > 0 {
		if d.ParseOptions == nil {
			log.Fatalf("protocol %q takes no options", *protoName)
		}
		if opts, err = d.ParseOptions(params); err != nil {
			log.Fatal(err)
		}
	}

	if tf.CPUProfile != "" {
		stop, perr := telemetry.StartCPUProfile(tf.CPUProfile)
		if perr != nil {
			log.Fatal(perr)
		}
		defer stop()
	}

	tel := tf.NewSet()
	logbook, err := replay(*traceDir, *protoName, opts, *dur, tel)
	if err != nil {
		log.Fatal(err)
	}
	if err := logbook.WriteReport(os.Stdout); err != nil {
		log.Fatal(err)
	}
	// The same transcript mrsim -verdicts writes, so the two are diffable.
	if *verdicts != "" {
		if err := os.WriteFile(*verdicts, []byte(logbook.String()), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	if err := tf.Finish(tel); err != nil {
		log.Fatal(err)
	}
}

// replay opens the trace, attaches the protocol, and runs to the horizon.
func replay(dir, name string, opts any, dur time.Duration, tel *telemetry.Set) (*detector.Log, error) {
	env, err := capture.OpenTrace(dir, capture.TraceOptions{Telemetry: tel})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	hooks, logbook := protocol.LogHooks()
	if _, err := protocol.Attach(env, name, opts, hooks); err != nil {
		return nil, err
	}
	env.Run(dur)
	if err := env.Err(); err != nil {
		return nil, err
	}
	return logbook, nil
}

// parseParams decodes "k=1,round=1s" into protocol.Params.
func parseParams(s string) (protocol.Params, error) {
	if s == "" {
		return nil, nil
	}
	p := make(protocol.Params)
	for _, kv := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok || key == "" {
			return nil, fmt.Errorf("-options: %q is not key=value", kv)
		}
		p[key] = val
	}
	return p, nil
}

func printInfo(meta *capture.Meta) {
	fmt.Printf("seed %d, recorded from %v to %v\n", meta.Seed, meta.Start.D(), meta.Duration.D())
	fmt.Printf("%d routers, %d directed links\n", len(meta.Nodes), len(meta.Links))
	for i, n := range meta.Nodes {
		fmt.Printf("  r%-3d %-14s %s\n", i, n, meta.Files[i])
	}
}
