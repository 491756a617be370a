package protocol

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// goldenSpecs pair in-memory Spec values with their committed scenario
// files: Encode must reproduce the file byte-for-byte and DecodeSpec must
// reproduce the value, so the JSON format itself is pinned — a field
// rename or tag change breaks this test, not users' scenario files.
func goldenSpecs() map[string]*Spec {
	return map[string]*Spec{
		"line-drop": {
			Name:     "pik2-line5",
			Protocol: "pik2",
			Options: Params{
				"k": "1", "round": "1s", "timeout": "250ms",
				"loss-threshold": "2", "fabrication-threshold": "2",
			},
			Seed:     7,
			Duration: Duration(30 * time.Second),
			Jitter:   Duration(100 * time.Microsecond),
			Topology: TopologySpec{Kind: "line", N: 5},
			Routing: &RoutingSpec{
				Delay: Duration(time.Second), Hold: Duration(2 * time.Second),
				Converge: Duration(30 * time.Second), Respond: true,
			},
			Attack: &AttackSpec{
				Kind: "drop", Node: 2, Rate: 0.3,
				Start: Duration(5 * time.Second), Seed: 11,
			},
			Traffic: []TrafficSpec{{
				Kind: "pair", Src: 0, Dst: 4, Count: 15000,
				Interval: Duration(2 * time.Millisecond),
				Offset:   Duration(time.Microsecond),
				Size:     500, Flow: 1, ReverseFlow: 2,
			}},
		},
		"custom-topology": {
			Name:     "diamond",
			Protocol: "pi2",
			Seed:     42,
			Duration: Duration(12 * time.Second),
			Topology: TopologySpec{
				Kind:  "custom",
				Nodes: []string{"a", "b", "c", "d"},
				Links: []LinkSpec{
					{From: "a", To: "b", Bandwidth: 100e6, Delay: Duration(2 * time.Millisecond), QueueLimit: 64 << 10, Cost: 1},
					{From: "b", To: "d", Cost: 1},
					{From: "a", To: "c", Cost: 5},
					{From: "c", To: "d", Cost: 5},
				},
			},
			Traffic: []TrafficSpec{{
				Src: 0, Dst: 3, Count: 10000,
				Interval: Duration(time.Millisecond), Flow: 1,
			}},
		},
		"chi-masked": {
			Name:     "chi-simple",
			Protocol: "chi",
			Seed:     3,
			Duration: Duration(30 * time.Second),
			Topology: TopologySpec{Kind: "simple-chi", N: 3, M: 2},
			Attack:   &AttackSpec{Kind: "masked90", MinQueueFrac: 0.9},
		},
	}
}

func TestSpecGoldenRoundTrip(t *testing.T) {
	for name, spec := range goldenSpecs() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", name+".json")
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file: %v (regenerate with Encode)", err)
			}
			enc, err := spec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if string(enc) != string(golden) {
				t.Errorf("Encode drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, enc, golden)
			}
			dec, err := DecodeSpec(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dec, spec) {
				t.Errorf("DecodeSpec(%s) = %+v, want %+v", path, dec, spec)
			}
		})
	}
}

func TestDurationJSON(t *testing.T) {
	// Strings and bare nanosecond numbers both decode.
	dec, err := DecodeSpec([]byte(`{"protocol":"pik2","topology":{"kind":"line"},"duration":"1m30s","jitter":1000}`))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Duration.D() != 90*time.Second {
		t.Errorf("duration = %v, want 1m30s", dec.Duration.D())
	}
	if dec.Jitter.D() != time.Microsecond {
		t.Errorf("jitter = %v, want 1µs", dec.Jitter.D())
	}
}

func TestDecodeSpecErrors(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"unknown field", `{"protocol":"pik2","topology":{"kind":"line"},"colour":"red"}`, "colour"},
		{"missing protocol", `{"topology":{"kind":"line"}}`, "missing protocol"},
		{"bad duration", `{"protocol":"pik2","topology":{"kind":"line"},"duration":"fast"}`, "invalid duration"},
		{"not json", `protocol: pik2`, "scenario"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeSpec([]byte(tc.in))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("DecodeSpec error = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

func TestTopologyBuildErrors(t *testing.T) {
	if _, err := (TopologySpec{Kind: "mesh"}).Build(); err == nil {
		t.Error("unknown topology kind did not error")
	}
	if _, err := (TopologySpec{Kind: "custom"}).Build(); err == nil {
		t.Error("custom topology without nodes did not error")
	}
	bad := TopologySpec{Kind: "custom", Nodes: []string{"a"},
		Links: []LinkSpec{{From: "a", To: "ghost"}}}
	if _, err := bad.Build(); err == nil {
		t.Error("link to unknown node did not error")
	}
}

// customSpec is a scenario file on the custom topology a-b-c plus one more
// link.
func customSpec(link string) string {
	return `{"protocol":"stub","duration":"1s","topology":{"kind":"custom","nodes":["a","b","c"],` +
		`"links":[{"from":"a","to":"b"},{"from":"b","to":"c"},` + link + `]}}`
}

// scenarioErrCase is a scenario file and the error it must get.
type scenarioErrCase struct {
	name, in, wantErr string
}

// badLinkSpecs are custom topologies no run can use (ISSUE 21), rows of
// TestScenarioFileErrors and seeds of FuzzDecodeSpec. The self-loop and the
// queue limit used to panic in AddLink and NewDropTail, the negative cost
// never came back from the all-pairs paths, and the last two ran to
// completion as if valid.
var badLinkSpecs = []scenarioErrCase{
	{"link self-loop", customSpec(`{"from":"b","to":"b"}`), "link b-b: self-loop"},
	{"link queue-limit", customSpec(`{"from":"a","to":"b","queue-limit":-5}`), "link a-b: queue-limit -5 must be positive"},
	{"link cost", customSpec(`{"from":"a","to":"b","cost":-3}`), "link a-b: cost -3 must not be negative"},
	{"link bandwidth", customSpec(`{"from":"a","to":"b","bandwidth":-1}`), "link a-b: bandwidth -1 must be positive"},
	{"duplicate node", `{"protocol":"stub","duration":"1s","topology":{"kind":"custom","nodes":["a","b","a"]}}`, `duplicate node name "a"`},
}

// badChiSpecs are simple-chi stars with a negative source or sink count,
// rows of TestScenarioFileErrors and seeds of FuzzDecodeSpec. Both used to
// panic in topology.SimpleChi.
var badChiSpecs = []scenarioErrCase{
	{"simple-chi negative n", `{"protocol":"stub","seed":1,"duration":"1s","topology":{"kind":"simple-chi","n":-1}}`,
		"simple-chi: n -1 sources, m 0 sinks: must not be negative"},
	{"simple-chi negative m", `{"protocol":"stub","seed":1,"duration":"1s","topology":{"kind":"simple-chi","m":-1}}`,
		"simple-chi: n 0 sources, m -1 sinks: must not be negative"},
}

// TestScenarioFileErrors feeds Run and AssembleSim scenario files whose
// values do not fit their topology. Such files used to panic inside the run
// (or, for fabricate endpoints and negative count/pairs, ran a silently
// different scenario); all must come back as "scenario: …" errors from both
// entry points. The "canon" rows set fields a Descriptor.Scenario protocol
// never reads: Run used to run the canonical scenario as if they were
// absent. (AssembleSim builds no protocol, so those rows check Run alone.)
func TestScenarioFileErrors(t *testing.T) {
	registry["stub"] = Descriptor{Name: "stub", Attach: func(Env, any, Hooks) (any, error) {
		return nil, nil
	}}
	defer delete(registry, "stub")
	registry["canon"] = Descriptor{Name: "canon", Scenario: func(spec *Spec, _ RunOptions) (*Result, error) {
		return &Result{Spec: spec}, nil
	}}
	defer delete(registry, "canon")

	const line5 = `"protocol":"stub","duration":"1s","topology":{"kind":"line","n":5}`
	const canon = `"protocol":"canon","topology":{"kind":"line","n":5}`
	const ignored = "takes no options, traffic, routing or attacks list"
	cases := []scenarioErrCase{
		{"canonical options", `{` + canon + `,"options":{"bogus":"1","round":"fast"}}`, ignored},
		{"canonical traffic", `{` + canon + `,"traffic":[{"src":0,"dst":4,"count":3,"interval":"1ms"}]}`, ignored},
		{"canonical routing", `{` + canon + `,"routing":{"converge":"1s"}}`, ignored},
		{"canonical attacks list", `{` + canon + `,"attacks":[{"kind":"drop","node":1}]}`, ignored},
		{"attack node", `{` + line5 + `,"attack":{"kind":"drop","node":99}}`, "attack node 99"},
		{"colluder node", `{` + line5 + `,"attacks":[{"kind":"drop","node":-1}]}`, "attack node -1"},
		{"fabricate dst", `{` + line5 + `,"attack":{"kind":"fabricate","node":2,"src":0,"dst":5}}`, "fabricate src 0, dst 5"},
		{"stream src", `{` + line5 + `,"traffic":[{"src":99,"dst":4,"count":3,"interval":"1ms"}]}`, "traffic[0]: src 99, dst 4"},
		{"pair dst", `{` + line5 + `,"traffic":[{"kind":"pair","src":0,"dst":7,"count":3,"interval":"1ms"}]}`, "traffic[0]: src 0, dst 7"},
		{"mesh on one node", `{"protocol":"stub","topology":{"kind":"custom","nodes":["a"]},"traffic":[{"kind":"mesh","count":3,"interval":"1ms"}]}`, "at least 2 routers"},
		{"negative interval", `{` + line5 + `,"traffic":[{"src":0,"dst":4,"count":3,"interval":"-1ms"}]}`, "must not be negative"},
		{"negative offset", `{` + line5 + `,"traffic":[{"src":0,"dst":4,"count":3,"interval":"1ms","offset":"-1s"}]}`, "must not be negative"},
		{"negative count", `{` + line5 + `,"traffic":[{"kind":"mesh","count":-3,"interval":"1ms"}]}`, "must not be negative"},
		{"negative pairs", `{` + line5 + `,"traffic":[{"kind":"mesh","pairs":-1,"count":3,"interval":"1ms"}]}`, "must not be negative"},
	}
	cases = append(append(cases, badLinkSpecs...), badChiSpecs...)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := DecodeSpec([]byte(tc.in))
			if err != nil {
				t.Fatal(err)
			}
			_, runErr := Run(spec, RunOptions{})
			entries := map[string]error{"Run": runErr}
			if spec.Protocol != "canon" {
				_, entries["AssembleSim"] = AssembleSim(spec, nil)
			}
			for entry, err := range entries {
				if err == nil || !strings.HasPrefix(err.Error(), "scenario: ") || !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("%s error = %v, want a scenario error mentioning %q", entry, err, tc.wantErr)
				}
			}
		})
	}
}
