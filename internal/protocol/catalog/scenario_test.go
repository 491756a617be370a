package catalog

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"routerwatch/internal/detector/pik2"
	"routerwatch/internal/network"
	"routerwatch/internal/protocol"
	"routerwatch/internal/topology"
)

func lineTestSpec(opts protocol.Params) *protocol.Spec {
	return &protocol.Spec{
		Protocol: "pik2",
		Options:  opts,
		Seed:     1,
		Duration: protocol.Duration(2 * time.Second),
		Topology: protocol.TopologySpec{Kind: "line", N: 3},
	}
}

func TestRunUnknownProtocol(t *testing.T) {
	_, err := protocol.Run(&protocol.Spec{
		Protocol: "nope",
		Topology: protocol.TopologySpec{Kind: "line"},
	}, protocol.RunOptions{})
	if err == nil || !strings.Contains(err.Error(), `unknown protocol "nope"`) {
		t.Fatalf("err = %v, want unknown-protocol", err)
	}
	// The error is self-explaining: it lists what IS registered.
	if !strings.Contains(err.Error(), "pik2") || !strings.Contains(err.Error(), "chi") {
		t.Errorf("err %v does not list the registered protocols", err)
	}
}

func TestRunBadOptions(t *testing.T) {
	cases := []struct {
		name     string
		protocol string // "" is pik2
		opts     protocol.Params
		wantErr  string
	}{
		{"unknown key", "", protocol.Params{"bogus": "1"}, `unknown options ["bogus"]`},
		{"bad duration", "", protocol.Params{"round": "fast"}, `option "round"`},
		{"bad int", "", protocol.Params{"k": "one"}, `option "k"`},
		{"bad exchange mode", "", protocol.Params{"exchange": "psychic"}, `unknown exchange mode`},
		// Well-formed values no run can use (ISSUE 19). A negative round
		// used to reach SimEnv.Every and panic; the rest ran to completion
		// on nonsense.
		{"pik2 negative round", "pik2", protocol.Params{"round": "-1s"}, `option "round": "-1s" must not be negative`},
		{"pi2 negative round", "pi2", protocol.Params{"round": "-1s"}, `option "round": "-1s" must not be negative`},
		{"pik2 negative timeout", "pik2", protocol.Params{"timeout": "-1s"}, `option "timeout"`},
		{"pi2 negative settle", "pi2", protocol.Params{"settle": "-1s"}, `option "settle"`},
		{"pik2 negative loss threshold", "pik2", protocol.Params{"loss-threshold": "-1"}, `option "loss-threshold"`},
		{"pi2 negative loss threshold", "pi2", protocol.Params{"loss-threshold": "-1"}, `option "loss-threshold"`},
		{"pik2 negative fabrication threshold", "pik2", protocol.Params{"fabrication-threshold": "-3"}, `option "fabrication-threshold"`},
		{"pi2 negative fabrication threshold", "pi2", protocol.Params{"fabrication-threshold": "-3"}, `option "fabrication-threshold"`},
		// The sketch exchange and its two knobs are deleted (ISSUE 21): the
		// mode is an unknown mode, the knobs unknown keys, whatever their value.
		{"pik2 exchange sketch", "pik2", protocol.Params{"exchange": "sketch"}, `unknown exchange mode "sketch"`},
		{"pik2 negative sketch capacity", "pik2", protocol.Params{"sketch-capacity": "-5"}, `unknown options ["sketch-capacity"]`},
		{"pik2 negative sketch rate", "pik2", protocol.Params{"sketch-fp-rate": "-0.1"}, `unknown options ["sketch-fp-rate"]`},
		{"pik2 sampling NaN", "pik2", protocol.Params{"sampling": "NaN"}, `option "sampling": "NaN" must lie in [0, 1]`},
		{"pik2 sampling above one", "pik2", protocol.Params{"sampling": "1.5"}, `option "sampling"`},
		// The remaining descriptors (ISSUE 20), on the three-router line. The
		// first seven used to panic — in SimEnv.Every, in Network.Router, or
		// indexing the routers; the last two ran: a monitor on a queue that
		// does not exist, and k=1.
		{"watchers negative round", "watchers", protocol.Params{"round": "-1s"}, `option "round": "-1s" must not be negative`},
		{"queue-monitor negative round", "queue-monitor", protocol.Params{"r": "0", "rd": "1", "round": "-1s"}, `option "round": "-1s" must not be negative`},
		{"queue-monitor rd out of range", "queue-monitor", protocol.Params{"r": "1", "rd": "9"}, `option "rd": r9 is not one of the topology's 3 routers`},
		{"replica negative observed", "replica", protocol.Params{"observed": "-1"}, `option "observed": "-1" must not be negative`},
		{"replica observed out of range", "replica", protocol.Params{"observed": "99"}, `option "observed": r99 is not one of the topology's 3 routers`},
		{"chi negative round", "chi", protocol.Params{"round": "-1s"}, `option "round": "-1s" must not be negative`},
		// A validator holds one pending round's batches at a time, so the
		// checkpoint must run before the next round boundary.
		{"chi timeout not below round", "chi", protocol.Params{"timeout": "1s"}, `chi: timeout 1s must be shorter than round 1s`},
		{"chi timeout above round", "chi", protocol.Params{"round": "200ms", "timeout": "250ms"}, `chi: timeout 250ms must be shorter than round 200ms`},
		{"queue-monitor no such link", "queue-monitor", protocol.Params{"r": "0", "rd": "2"}, `option "rd": the topology has no link r0→r2`},
		{"pik2 negative k", "pik2", protocol.Params{"k": "-3"}, `option "k": "-3" must not be negative`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := lineTestSpec(tc.opts)
			if tc.protocol != "" {
				spec.Protocol = tc.protocol
			}
			d, err := protocol.Lookup(spec.Protocol)
			if err != nil {
				t.Fatal(err)
			}
			if d.Scenario == nil {
				_, err = protocol.Run(spec, protocol.RunOptions{})
			} else {
				// A canonical scenario takes no options; they reach χ
				// through Attach, as from mrreplay.
				var opts any
				if opts, err = d.ParseOptions(tc.opts); err == nil {
					env := protocol.NewSimEnv(network.New(topology.Line(3), network.Options{Seed: 1}))
					hooks, _ := protocol.LogHooks()
					_, err = protocol.Attach(env, spec.Protocol, opts, hooks)
				}
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want mention of %s", err, tc.wantErr)
			}
		})
	}
}

// TestCanonicalScenarioRejectsIgnoredFields is the ISSUE 17 reproduction on
// the two registered Descriptor.Scenario protocols: a scenario file setting
// fields the canonical scenario never reads used to run to completion as if
// they were absent.
func TestCanonicalScenarioRejectsIgnoredFields(t *testing.T) {
	for _, name := range []string{"chi", "fatih"} {
		spec, err := protocol.DecodeSpec([]byte(`{"protocol":"` + name + `","topology":{"kind":"simple-chi"},
			"options":{"bogus":"1","round":"fast"},
			"traffic":[{"src":99,"dst":100,"count":3,"interval":"1ms"}],
			"routing":{"converge":"1s"}}`))
		if err != nil {
			t.Fatal(err)
		}
		_, err = protocol.Run(spec, protocol.RunOptions{})
		if err == nil || !strings.HasPrefix(err.Error(), "scenario: ") ||
			!strings.Contains(err.Error(), "takes no options, traffic, routing or attacks list") {
			t.Errorf("%s: err = %v, want the canonical-scenario error", name, err)
		}
	}
}

// TestChiScenarioRejectsNegativeSizes runs χ's canonical scenario on a
// simple-chi star with a negative source or sink count, which used to panic
// in topology.SimpleChi.
func TestChiScenarioRejectsNegativeSizes(t *testing.T) {
	for _, size := range []string{`"n":-1`, `"m":-1`} {
		spec, err := protocol.DecodeSpec([]byte(`{"protocol":"chi","seed":1,"duration":"1s","topology":{"kind":"simple-chi",` + size + `}}`))
		if err != nil {
			t.Fatal(err)
		}
		_, err = protocol.Run(spec, protocol.RunOptions{})
		if err == nil || !strings.HasPrefix(err.Error(), "scenario: topology: simple-chi: ") {
			t.Errorf("%s: err = %v, want the scenario's topology error", size, err)
		}
	}
}

// TestFatihOnlyRunsAsScenario pins the one way to run Fatih: the descriptor
// has no Attach (Fatih brings its own network and routing fabric), so
// protocol.Attach — and with it mrreplay -protocol fatih — refuses by name.
func TestFatihOnlyRunsAsScenario(t *testing.T) {
	env := protocol.NewSimEnv(network.New(topology.Abilene(), network.Options{Seed: 1}))
	hooks, _ := protocol.LogHooks()
	_, err := protocol.Attach(env, "fatih", nil, hooks)
	if want := `protocol "fatih" only runs as a full scenario`; err == nil || err.Error() != want {
		t.Errorf("Attach: err = %v, want %s", err, want)
	}
}

func TestRunBadAttackAndTraffic(t *testing.T) {
	spec := lineTestSpec(nil)
	spec.Attack = &protocol.AttackSpec{Kind: "melt", Node: 1}
	if _, err := protocol.Run(spec, protocol.RunOptions{}); err == nil ||
		!strings.Contains(err.Error(), `unknown attack kind "melt"`) {
		t.Errorf("bad attack kind: err = %v", err)
	}

	spec = lineTestSpec(nil)
	spec.Attack = &protocol.AttackSpec{Kind: "drop", Node: 1, Select: "every-other"}
	if _, err := protocol.Run(spec, protocol.RunOptions{}); err == nil ||
		!strings.Contains(err.Error(), "unknown attack selector") {
		t.Errorf("bad attack selector: err = %v", err)
	}

	spec = lineTestSpec(nil)
	spec.Traffic = []protocol.TrafficSpec{{Kind: "burst", Count: 1}}
	if _, err := protocol.Run(spec, protocol.RunOptions{}); err == nil ||
		!strings.Contains(err.Error(), `unknown traffic kind "burst"`) {
		t.Errorf("bad traffic kind: err = %v", err)
	}
}

// TestScenarioFileRuns decodes the committed golden scenario and executes
// it end to end — the mrsim -scenario path minus the CLI.
func TestScenarioFileRuns(t *testing.T) {
	spec := loadScenario(t, filepath.Join("..", "testdata", "line-drop.json"))
	// Trim the canonical 30s to keep the test snappy; the shape is what
	// matters here.
	spec.Duration = protocol.Duration(10 * time.Second)
	spec.Traffic[0].Count = 5000
	res, err := protocol.Run(spec, protocol.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Routing == nil {
		t.Error("spec requested routing but Result.Routing is nil")
	}
	if res.Faulty != 2 {
		t.Errorf("faulty = %v, want 2", res.Faulty)
	}
	if res.Log.Len() == 0 {
		t.Error("scenario raised no suspicions")
	}
	if _, ok := res.Engine.(*pik2.Protocol); !ok {
		t.Errorf("engine is %T, want *pik2.Protocol", res.Engine)
	}
}

// TestFatihBeforeRunOnce: Fatih's canonical scenario calls RunOptions'
// BeforeRun exactly once, assembled and before the simulation has run —
// at virtual time 0 — with the Result the run returns, as RunGeneric
// does. It once never called it, so mrsim -protocol fatih -record ran the
// whole simulation and then failed with a recorder never attached.
func TestFatihBeforeRunOnce(t *testing.T) {
	d, err := protocol.Lookup("fatih")
	if err != nil {
		t.Fatal(err)
	}
	spec := d.DefaultSpec(1, false)
	spec.Duration = protocol.Duration(10 * time.Second)
	var calls []time.Duration
	var seen *protocol.Result
	res, err := protocol.Run(spec, protocol.RunOptions{BeforeRun: func(r *protocol.Result) {
		calls = append(calls, r.Net.Now())
		if r.Env == nil || r.Log == nil || r.Engine == nil || r.Faulty < 0 {
			t.Errorf("BeforeRun sees an unassembled result: %+v", r)
		}
		seen = r
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || calls[0] != 0 {
		t.Fatalf("BeforeRun ran at %v, want once at 0", calls)
	}
	if seen != res || res.Net.Now() != 10*time.Second {
		t.Errorf("BeforeRun saw %p, Run returned %p at %v", seen, res, res.Net.Now())
	}
}
