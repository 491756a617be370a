package catalog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/protocol/envtest"
	"routerwatch/internal/telemetry"
)

// ispDropSpec is a generated ~100-router hierarchical scenario: link-state
// routing, a 40-pair random traffic mesh, and a
// PoP-0 core router dropping transit traffic.
func ispDropSpec() *protocol.Spec {
	return &protocol.Spec{
		Name:     "isp96drop",
		Protocol: "pik2",
		Options: protocol.Params{
			"k": "1", "round": "1s", "timeout": "250ms",
			"loss-threshold": "2", "fabrication-threshold": "2",
		},
		Seed:     1,
		Duration: protocol.Duration(15 * time.Second),
		Jitter:   protocol.Duration(100 * time.Microsecond),
		Topology: protocol.TopologySpec{Kind: "isp", N: 96, Pops: 4, Seed: 11},
		Routing: &protocol.RoutingSpec{
			Delay: protocol.Duration(time.Second), Hold: protocol.Duration(2 * time.Second),
			Converge: protocol.Duration(2 * time.Minute),
		},
		Attack: &protocol.AttackSpec{
			Kind: "drop", Node: 0, Rate: 0.6, Select: "data",
			Start: protocol.Duration(2 * time.Second),
		},
		Traffic: []protocol.TrafficSpec{{
			Kind: "mesh", Pairs: 40, Count: 400,
			Interval: protocol.Duration(5 * time.Millisecond),
			Offset:   protocol.Duration(time.Microsecond),
			Size:     500, Flow: 1,
		}},
	}
}

// renderRun executes the spec with a metrics registry and returns the
// byte-comparable artifacts: the rendered suspicion log and the
// Prometheus-rendered telemetry.
func renderRun(t *testing.T, spec *protocol.Spec) (string, string, *protocol.Result) {
	t.Helper()
	reg := telemetry.NewRegistry()
	res, err := protocol.Run(spec, protocol.RunOptions{Telemetry: &telemetry.Set{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	var tel bytes.Buffer
	if err := reg.WritePrometheus(&tel); err != nil {
		t.Fatalf("telemetry render: %v", err)
	}
	return res.Log.String(), tel.String(), res
}

// withShardsField returns the spec as decoded from its scenario-file form
// with "shards": 8 set — a file written for the removed sharded kernel.
func withShardsField(t *testing.T, spec *protocol.Spec) *protocol.Spec {
	t.Helper()
	legacy := *spec
	legacy.Shards = 8
	file, err := legacy.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(file, []byte(`"shards": 8`)) {
		t.Fatalf("encoded scenario carries no shards field:\n%s", file)
	}
	dec, err := protocol.DecodeSpec(file)
	if err != nil {
		t.Fatalf("scenario file with a shards field no longer decodes: %v", err)
	}
	return dec
}

// loadScenario decodes a committed scenario file.
func loadScenario(t *testing.T, path string) *protocol.Spec {
	t.Helper()
	data, err := os.ReadFile(path)
	spec, decodeErr := protocol.DecodeSpec(data)
	if err = errors.Join(err, decodeErr); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return spec
}

// TestScaleScenariosDetect runs Πk+2 end to end on the capture golden's
// committed scenario and on a generated hierarchical topology with every
// routing scale option on — the only tier-1 run of a detector over an ISP
// graph — and requires suspicions that implicate the faulty router. The
// legacyShards row pins that a scenario file carrying the ignored "shards"
// field still decodes and changes neither verdicts nor telemetry.
func TestScaleScenariosDetect(t *testing.T) {
	line5 := loadScenario(t, "../../capture/testdata/line5drop.json")
	scenarios := []struct {
		name         string
		spec         *protocol.Spec
		legacyShards bool
	}{
		{"line5drop", line5, false},
		{"isp96drop", ispDropSpec(), false},
		{"line5drop-shards-field", line5, true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			verdicts, tel, res := renderRun(t, sc.spec)
			if res.Log.Len() == 0 {
				t.Fatal("the run raised no suspicions — the scenario is inert")
			}
			implicated := false
			for _, seg := range res.Log.Segments() {
				if seg.Contains(res.Faulty) {
					implicated = true
				}
			}
			if !implicated {
				t.Fatalf("suspicions never implicate the faulty router %v", res.Faulty)
			}
			if sc.legacyShards {
				gotV, gotT, _ := renderRun(t, withShardsField(t, sc.spec))
				if gotV != verdicts {
					t.Errorf("verdicts change with the shards field\n--- without\n%s--- with\n%s", verdicts, gotV)
				}
				if gotT != tel {
					t.Error("telemetry changes with the shards field")
				}
			}
		})
	}
}

// TestScaleSmoke drives a ~200-router, multi-thousand-flow generated
// scenario end to end through Πk+2 and judges the suspicion log with the
// §4.2.2 conformance checkers. Heavy; enabled by RW_SCALE_SMOKE=1 (the CI
// scale-smoke job).
func TestScaleSmoke(t *testing.T) {
	if os.Getenv("RW_SCALE_SMOKE") == "" {
		t.Skip("set RW_SCALE_SMOKE=1 to run the ~200-router scale smoke")
	}
	spec := ispDropSpec()
	spec.Name = "isp200smoke"
	spec.Topology = protocol.TopologySpec{Kind: "isp", N: 200, Pops: 8, Seed: 7}
	spec.Traffic = []protocol.TrafficSpec{{
		Kind: "mesh", Pairs: 120, Count: 600,
		Interval: protocol.Duration(5 * time.Millisecond),
		Offset:   protocol.Duration(time.Microsecond),
		Size:     500, Flow: 1,
	}}
	spec.Duration = protocol.Duration(20 * time.Second)

	res, err := protocol.Run(spec, protocol.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	envtest.CheckDetection(t, envtest.Detection{
		Log:      res.Log,
		Faulty:   []packet.NodeID{res.Faulty},
		Accuracy: 3, // Πk+2 names k+2 = 3 segment ends
	})
}

// TestScaleFull is the roadmap's internet-scale acceptance run: the
// committed 1000-router, one-million-flow scenario (the same file cmd/mrsim
// runs with -scenario) executes end to end and the §4.2.2 checkers judge
// the verdicts. ~80s wall; enabled by RW_SCALE_FULL=1.
func TestScaleFull(t *testing.T) {
	if os.Getenv("RW_SCALE_FULL") == "" {
		t.Skip("set RW_SCALE_FULL=1 to run the 1000-router / 1M-flow acceptance scenario")
	}
	res, err := protocol.Run(loadScenario(t, "../testdata/isp1000.json"), protocol.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	envtest.CheckDetection(t, envtest.Detection{
		Log:      res.Log,
		Faulty:   []packet.NodeID{res.Faulty},
		Accuracy: 3,
	})
}

// TestSeedAccuracy holds a-Accuracy as a property of the protocol, not of
// one spec seed: the committed Πk+2 workloads, read in place, run at other
// traffic seeds and the §4.2.2 checkers judge each run at bound k+2 = 3.
// Tier-1 runs a fixed subset; RW_SCALE_SMOKE=1 (make scale-smoke) runs
// seeds 1–10 of each. A path table that broke equal-cost ties otherwise
// than the routers forward (isp-converge at seed 7) fails here.
func TestSeedAccuracy(t *testing.T) {
	cells := map[string][]int64{"isp-converge": {2, 7}, "mesh-forward": {2}}
	if os.Getenv("RW_SCALE_SMOKE") != "" {
		seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		cells = map[string][]int64{"isp-converge": seeds, "mesh-forward": seeds}
	}
	for _, workload := range []string{"isp-converge", "mesh-forward"} {
		for _, seed := range cells[workload] {
			t.Run(fmt.Sprintf("%s/seed%d", workload, seed), func(t *testing.T) {
				spec := loadScenario(t, "../../../bench/workloads/"+workload+".json")
				spec.Seed = seed
				res, err := protocol.Run(spec, protocol.RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				envtest.CheckDetection(t, envtest.Detection{
					Log:      res.Log,
					Faulty:   []packet.NodeID{res.Faulty},
					Accuracy: 3,
				})
			})
		}
	}
}
