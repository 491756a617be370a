package capture_test

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"routerwatch/internal/capture"
	"routerwatch/internal/network"
	"routerwatch/internal/protocol"
	_ "routerwatch/internal/protocol/catalog"
	"routerwatch/internal/protocol/envtest"
)

// fixtureDir is the committed trace recorded from testdata/line5drop.json;
// the root package's differential harness replays it to line5drop.golden.
const fixtureDir = "testdata/line5drop"

// A TraceEnv is both halves of the runtime contract.
var (
	_ protocol.Env     = (*capture.TraceEnv)(nil)
	_ protocol.Backend = (*capture.TraceEnv)(nil)
)

// recordLine5Drop runs the scenario the fixture was recorded from (the Fig
// 5.2 shape, shortened), after edit, with every router's packet events
// recorded into a fresh directory, and returns the directory.
func recordLine5Drop(t *testing.T, edit func(*protocol.Spec)) string {
	t.Helper()
	data, err := os.ReadFile("testdata/line5drop.json")
	spec, decodeErr := protocol.DecodeSpec(data)
	if err = errors.Join(err, decodeErr); err != nil {
		t.Fatal(err)
	}
	edit(spec)
	dir := t.TempDir()
	var rec *capture.Recorder
	if _, err := protocol.Run(spec, protocol.RunOptions{BeforeRun: func(r *protocol.Result) {
		rec = capture.NewRecorder(dir, capture.RecorderOptions{Gzip: true})
		if err := rec.Attach(r.Net); err != nil {
			t.Fatalf("recorder attach: %v", err)
		}
	}}); err != nil {
		t.Fatalf("recording run: %v", err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestTraceEnvContract runs the shared Env conformance suite against
// TraceEnv — the acceptance criterion that trace replay is a full second
// backend, not a special case. The backing trace is a clean recording (the
// suite drives its own control/flood/timer activity; replayed data events
// just coexist).
func TestTraceEnvContract(t *testing.T) {
	dir := recordLine5Drop(t, func(spec *protocol.Spec) {
		spec.Attack = nil
		spec.Duration = protocol.Duration(2 * time.Second)
		spec.Traffic[0].Count = 50
	})
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
	env, err := capture.OpenTrace(recordLine5Drop(t, func(*protocol.Spec) {}), capture.TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	total, last := 0, time.Duration(-1)
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
