package capture_test

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"routerwatch/internal/capture"
	"routerwatch/internal/detector"
	"routerwatch/internal/detector/chi"
	"routerwatch/internal/network"
	"routerwatch/internal/protocol"
	_ "routerwatch/internal/protocol/catalog"
	"routerwatch/internal/protocol/envtest"
)

// Committed fixture: the line5 dropping-router trace recorded by this very
// test (RW_UPDATE_GOLDEN=1 regenerates both) and the suspicion log every
// replay of it must reproduce byte for byte.
const (
	fixtureDir = "testdata/line5drop"
	goldenPath = "testdata/line5drop.golden"
)

// A TraceEnv is both halves of the runtime contract.
var (
	_ protocol.Env     = (*capture.TraceEnv)(nil)
	_ protocol.Backend = (*capture.TraceEnv)(nil)
)

// line5DropSpec is the golden scenario: Πk+2 on a 5-router line with the
// middle router dropping 30% from t=1s — the dissertation's Fig 5.2 shape,
// shortened to keep the committed trace small.
func line5DropSpec() *protocol.Spec {
	return &protocol.Spec{
		Name:     "line5drop-golden",
		Protocol: "pik2",
		Options: protocol.Params{
			"k": "1", "round": "1s", "timeout": "250ms",
			"loss-threshold": "2", "fabrication-threshold": "2",
		},
		Seed:     1,
		Duration: protocol.Duration(4 * time.Second),
		Jitter:   protocol.Duration(100 * time.Microsecond),
		Topology: protocol.TopologySpec{Kind: "line", N: 5},
		Attack: &protocol.AttackSpec{
			Kind: "drop", Node: 2, Rate: 0.3,
			Start: protocol.Duration(time.Second),
		},
		Traffic: []protocol.TrafficSpec{{
			Kind: "pair", Src: 0, Dst: 4, Count: 400,
			Interval: protocol.Duration(10 * time.Millisecond),
			Offset:   protocol.Duration(time.Microsecond),
			Size:     500, Flow: 1, ReverseFlow: 2,
		}},
	}
}

// line5ChiOptions deploys χ alongside Πk+2 with a fixed calibration —
// replay has no learning pass, so the calibration must be data, not a
// side effect of the run.
func line5ChiOptions(log *detector.Log) chi.Options {
	return chi.Options{
		Round:                time.Second,
		Timeout:              250 * time.Millisecond,
		Calibration:          chi.Calibration{Mu: 0, Sigma: 1000},
		FabricationTolerance: 2,
		Sink:                 detector.LogSink(log),
	}
}

// render flattens the two detectors' suspicion logs into the canonical
// byte-comparable transcript.
func render(pik, chiLog *detector.Log) string {
	return "=== pik2 ===\n" + pik.String() + "=== chi ===\n" + chiLog.String()
}

// runLine5Sim runs the golden scenario under SimEnv, recording every
// router's packet events into dir, with χ attached next to the scenario's
// own Πk+2. Returns the rendered suspicion transcript.
func runLine5Sim(t *testing.T, dir string) string {
	t.Helper()
	chiLog := detector.NewLog()
	var rec *capture.Recorder
	res, err := protocol.Run(line5DropSpec(), protocol.RunOptions{
		BeforeRun: func(r *protocol.Result) {
			rec = capture.NewRecorder(dir, capture.RecorderOptions{Gzip: true})
			if err := rec.Attach(r.Net); err != nil {
				t.Fatalf("recorder attach: %v", err)
			}
			chi.Attach(r.Env, line5ChiOptions(chiLog))
		},
	})
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatalf("recorder close: %v", err)
	}
	if res.Log.Len() == 0 {
		t.Fatal("sim run produced no Πk+2 suspicions — the golden scenario is inert")
	}
	return render(res.Log, chiLog)
}

// replayLine5 replays a recorded golden-scenario trace through a TraceEnv
// with the same Πk+2 options and the same χ deployment, and returns the
// rendered suspicion transcript.
func replayLine5(t testing.TB, dir string) string {
	t.Helper()
	env, err := capture.OpenTrace(dir, capture.TraceOptions{})
	if err != nil {
		t.Fatalf("open trace: %v", err)
	}
	defer env.Close()
	d, err := protocol.Lookup("pik2")
	if err != nil {
		t.Fatal(err)
	}
	opts, err := d.ParseOptions(line5DropSpec().Options)
	if err != nil {
		t.Fatal(err)
	}
	hooks, pikLog := protocol.LogHooks()
	if _, err := protocol.Attach(env, "pik2", opts, hooks); err != nil {
		t.Fatalf("attach pik2: %v", err)
	}
	chiLog := detector.NewLog()
	chi.Attach(env, line5ChiOptions(chiLog))
	env.Run(0)
	if err := env.Err(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return render(pikLog, chiLog)
}

// TestRecordReplayGolden is the subsystem's acceptance test: record the
// golden scenario under SimEnv, replay the trace through TraceEnv, and
// require the Πk+2 and χ suspicion logs to match byte for byte — then
// require the committed fixture to still replay to the committed golden.
// RW_UPDATE_GOLDEN=1 regenerates fixture and golden together.
func TestRecordReplayGolden(t *testing.T) {
	dir := t.TempDir()
	simOut := runLine5Sim(t, dir)
	repOut := replayLine5(t, dir)
	if repOut != simOut {
		t.Fatalf("replay diverges from the originating sim run:\n--- sim\n%s--- replay\n%s", simOut, repOut)
	}

	if os.Getenv("RW_UPDATE_GOLDEN") == "1" {
		if err := os.RemoveAll(fixtureDir); err != nil {
			t.Fatal(err)
		}
		if got := runLine5Sim(t, fixtureDir); got != simOut {
			t.Fatalf("re-recording produced a different transcript:\n%s", got)
		}
		if err := os.WriteFile(goldenPath, []byte(simOut), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s and %s", fixtureDir, goldenPath)
	}

	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with RW_UPDATE_GOLDEN=1 to create): %v", err)
	}
	fixOut := replayLine5(t, fixtureDir)
	if fixOut != string(golden) {
		t.Errorf("committed fixture no longer replays to the committed golden:\n--- golden\n%s--- replay\n%s", golden, fixOut)
	}
}

// TestReplayParallelDeterminism replays the committed fixture on parallel
// subtests and requires every transcript to equal the sequential baseline
// — replay determinism must survive goroutine interleaving.
func TestReplayParallelDeterminism(t *testing.T) {
	if _, err := os.Stat(fixtureDir); err != nil {
		t.Skipf("fixture not recorded yet: %v", err)
	}
	want := replayLine5(t, fixtureDir)
	for i := 0; i < 4; i++ {
		t.Run(fmt.Sprintf("replay%d", i), func(t *testing.T) {
			t.Parallel()
			if got := replayLine5(t, fixtureDir); got != want {
				t.Errorf("parallel replay diverges:\n--- want\n%s--- got\n%s", want, got)
			}
		})
	}
}

// TestTraceEnvContract runs the shared Env conformance suite against
// TraceEnv — the acceptance criterion that trace replay is a full second
// backend, not a special case. The backing trace is a clean recording (the
// suite drives its own control/flood/timer activity; replayed data events
// just coexist).
func TestTraceEnvContract(t *testing.T) {
	dir := t.TempDir()
	spec := line5DropSpec()
	spec.Attack = nil
	spec.Duration = protocol.Duration(2 * time.Second)
	spec.Traffic[0].Count = 50
	var rec *capture.Recorder
	if _, err := protocol.Run(spec, protocol.RunOptions{
		BeforeRun: func(r *protocol.Result) {
			rec = capture.NewRecorder(dir, capture.RecorderOptions{Gzip: true})
			if err := rec.Attach(r.Net); err != nil {
				t.Fatalf("recorder attach: %v", err)
			}
		},
	}); err != nil {
		t.Fatalf("recording run: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	envtest.Run(t, func(t *testing.T) protocol.Backend {
		env, err := capture.OpenTrace(dir, capture.TraceOptions{})
		if err != nil {
			t.Fatalf("open trace: %v", err)
		}
		return env
	})
}

// TestTraceReplayedEvents pins that a replayed trace delivers exactly the
// recorded events: same count, same order, same packet identity, at the
// recorded virtual instants.
func TestTraceReplayedEvents(t *testing.T) {
	dir := t.TempDir()
	runLine5Sim(t, dir)
	env, err := capture.OpenTrace(dir, capture.TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	total := 0
	last := time.Duration(-1)
	for _, id := range env.Nodes() {
		env.Tap(id, func(ev network.Event) {
			total++
			if ev.Time != env.Now() {
				t.Errorf("tap sees Now()=%v for event recorded at %v", env.Now(), ev.Time)
			}
			if ev.Time < last {
				t.Errorf("replay order regressed: %v after %v", ev.Time, last)
			}
			last = ev.Time
			if ev.Packet == nil {
				t.Error("replayed event without packet")
			}
		})
	}
	env.Run(0)
	if err := env.Err(); err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("no events replayed")
	}
}

// TestTraceEnvIsNotSimBacked guards the un-promoted Network(): TraceEnv
// embeds its loopback network's Env as the interface, not as *SimEnv, so the
// protocols that read live simulator state keep refusing a trace instead of
// watching loopback routers no packet ever crosses.
func TestTraceEnvIsNotSimBacked(t *testing.T) {
	env, err := capture.OpenTrace(fixtureDir, capture.TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	for _, name := range []string{"watchers", "replica"} {
		hooks, _ := protocol.LogHooks()
		_, err := protocol.Attach(env, name, nil, hooks)
		if err == nil || !strings.Contains(err.Error(), "requires a simulator-backed environment") {
			t.Errorf("attach %s to a trace: err = %v, want the simulator-backed refusal", name, err)
		}
	}
}
