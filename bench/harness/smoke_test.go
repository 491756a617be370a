package harness

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"routerwatch/bench/result"
	"routerwatch/internal/detector"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/topology"
)

// shrink scales a workload's spec down to smoke-test size: at most 40
// routers and 2000 packets, with the attack early enough to be caught.
func shrink(spec *protocol.Spec) {
	switch spec.Topology.Kind {
	case "isp":
		spec.Topology.N, spec.Topology.Pops = 40, 4
	case "simple-chi":
		spec.Topology.N = 2
		spec.Duration = protocol.Duration(30 * time.Second)
		spec.Attack.Start = protocol.Duration(10 * time.Second)
	}
	for i := range spec.Traffic {
		t := &spec.Traffic[i]
		switch t.Kind {
		case "mesh":
			t.Pairs, t.Count = 40, 50
			t.Interval = protocol.Duration(20 * time.Millisecond)
			spec.Duration = protocol.Duration(3 * time.Second)
		case "pair":
			t.Count = 1000
			t.Interval = protocol.Duration(2 * time.Millisecond)
			spec.Duration = protocol.Duration(3 * time.Second)
			spec.Attack.Start = protocol.Duration(500 * time.Millisecond)
		}
	}
}

func smokeConfig() config {
	return config{dir: "..", seed: 1, iters: 1, shrink: shrink, quick: true}
}

// TestWorkloadsSmoke makes a traced run of every workload at a scaled-down
// size. A traced run holds an untraced reference iteration beside the
// traced one, so one run shows both halves: every iteration must pass its
// verdict checks, the untraced ones must yield every end-to-end metric, and
// the trace file must parse and cover every per-layer metric.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range result.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			cfg := smokeConfig()
			cfg.out = t.TempDir()
			traced, err := runTraced(cfg, wl.Name)
			if err != nil {
				t.Fatal(err)
			}
			checkEndToEnd(t, traced)
			data, err := os.ReadFile(traced.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatalf("trace file does not parse: %v", err)
			}
			if len(tf.Spans) == 0 {
				t.Error("trace file holds no spans")
			}
			for _, m := range result.PerLayer {
				if _, ok := tf.Layers[m.Name]; !ok {
					t.Errorf("per-layer metric %s missing from the trace file", m.Name)
				}
			}
			sum := tf.Layers["protocol.assemble_s"] + tf.Layers["protocol.run_s"] + tf.Layers["protocol.judge_s"]
			if sum <= 0 {
				t.Errorf("the three top-level spans sum to %v", sum)
			}
			for _, sp := range tf.Spans {
				if sp.SelfS < -1e-6 || sp.EndS < sp.StartS {
					t.Errorf("span %+v: negative time", sp)
				}
			}
		})
	}
}

// checkEndToEnd fails the test unless every iteration of the run passed and
// every end-to-end metric has a positive reading.
func checkEndToEnd(t *testing.T, run *result.Run) {
	t.Helper()
	s := result.Summarize(run)
	if s.Failed != 0 || s.Attempted < 2 {
		t.Fatalf("attempted %d, failed %d: %v", s.Attempted, s.Failed, s.Failures)
	}
	for _, m := range result.EndToEnd {
		st, ok := s.Metrics[m.Name]
		if !ok || st.N == 0 || st.Value <= 0 || math.IsNaN(st.Value) {
			t.Errorf("end-to-end metric %s = %+v, want a positive reading", m.Name, st)
		}
	}
}

// TestUntracedRun covers the run that produces the published end-to-end
// numbers: a warm-up and exactly -iters timed iterations, telemetry off.
func TestUntracedRun(t *testing.T) {
	cfg := smokeConfig()
	cfg.iters = 2
	run, err := runUntraced(cfg, "trace-replay")
	if err != nil {
		t.Fatal(err)
	}
	checkEndToEnd(t, run)
	if len(run.Timed) != 2 || run.RefDigest == "" || run.Layers != nil {
		t.Errorf("%d timed iterations, ref digest %q, layers %v; want 2, the recording's digest, none",
			len(run.Timed), run.RefDigest, run.Layers)
	}
}

// TestCorruptLogFails makes sure the verdict check can fail: a suspicion
// log with a false accusation slipped in must show up as failed operations
// and an ops_ok_frac below one.
func TestCorruptLogFails(t *testing.T) {
	cfg := smokeConfig()
	cfg.corrupt = func(log *detector.Log) {
		log.Add(detector.Suspicion{
			By: 5, Segment: topology.Segment{packet.NodeID(6), packet.NodeID(7)},
			At: time.Second, Kind: detector.KindTrafficValidation, Confidence: 1,
		})
	}
	run, err := runUntraced(cfg, "mesh-forward")
	if err != nil {
		t.Fatal(err)
	}
	s := result.Summarize(run)
	if s.Failed != s.Attempted || s.Metrics["ops_ok_frac"].Value != 0 {
		t.Fatalf("corrupted log: failed %d of %d, ops_ok_frac %v; want every iteration to fail",
			s.Failed, s.Attempted, s.Metrics["ops_ok_frac"].Value)
	}
}

// TestDigestMismatchFails covers the other half of the check: iterations
// whose verdicts differ from iteration 0's fail even when each is
// accurate on its own.
func TestDigestMismatchFails(t *testing.T) {
	run := &result.Run{
		Warmup: result.Iteration{Digest: "aa"},
		Timed:  []result.Iteration{{Digest: "aa"}, {Digest: "bb"}},
	}
	if s := result.Summarize(run); s.Failed != 1 || s.Attempted != 3 {
		t.Fatalf("failed %d of %d, want 1 of 3", s.Failed, s.Attempted)
	}
	run.RefDigest = "bb"
	if s := result.Summarize(run); s.Failed != 2 {
		t.Fatalf("against a reference digest: failed %d, want 2", s.Failed)
	}
}
