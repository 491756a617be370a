package protocol_test

import (
	"testing"
	"time"

	"routerwatch/internal/protocol"
	"routerwatch/internal/protocol/envtest"
)

// simFactory assembles a fresh 5-router line backend with background pair
// traffic — the canonical substrate the contract suite exercises.
func simFactory(t *testing.T) protocol.Backend {
	spec := &protocol.Spec{
		Name: "envtest-line5", Seed: 1,
		Duration: protocol.Duration(2 * time.Second),
		Jitter:   protocol.Duration(100 * time.Microsecond),
		Topology: protocol.TopologySpec{Kind: "line", N: 5},
		Traffic: []protocol.TrafficSpec{{
			Kind: "pair", Src: 0, Dst: 4, Count: 50,
			Interval: protocol.Duration(10 * time.Millisecond),
			Offset:   protocol.Duration(time.Microsecond),
			Size:     500, Flow: 1, ReverseFlow: 2,
		}},
	}
	b, err := protocol.AssembleSim(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSimEnvContract runs the reusable Env conformance suite against the
// first backend: SimEnv via AssembleSim. internal/capture runs the same
// suite against TraceEnv.
func TestSimEnvContract(t *testing.T) {
	envtest.Run(t, simFactory)
}
