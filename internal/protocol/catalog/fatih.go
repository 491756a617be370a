package catalog

import (
	"fmt"
	"time"

	"routerwatch/internal/fatih"
	"routerwatch/internal/protocol"
)

func init() {
	protocol.Register(protocol.Descriptor{
		Name:         "fatih",
		Precision:    3,
		Summary:      "Fatih (§5.3): full prototype — Πk+2 + link-state routing with alert-driven exclusion",
		ParseOptions: parseFatihOptions,
		Attach:       attachFatih,
		Scenario:     runFatihScenario,
		DefaultSpec:  fatihDefaultSpec,
	})
}

func parseFatihOptions(p protocol.Params) (any, error) {
	d := protocol.NewParamDecoder(p)
	o := fatih.Options{
		K:                    d.Int("k", 0),
		Round:                d.Duration("round", 0),
		Timeout:              d.Duration("timeout", 0),
		LossThreshold:        d.Int("loss-threshold", 0),
		FabricationThreshold: d.Int("fabrication-threshold", 0),
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return o, nil
}

func attachFatih(env protocol.Env, opts any, hooks protocol.Hooks) (any, error) {
	// Fatih deploys its own routing fabric alongside the detector, which
	// today only exists in the simulator.
	net, err := simNetwork(env, "fatih")
	if err != nil {
		return nil, err
	}
	var o fatih.Options
	if opts != nil {
		var ok bool
		if o, ok = opts.(fatih.Options); !ok {
			return nil, fmt.Errorf("fatih: options are %T, want fatih.Options", opts)
		}
	}
	o.Sink = protocol.MergeSink(o.Sink, hooks.Sink)
	return fatih.Deploy(net, o), nil
}

// runFatihScenario runs the Fig 5.7 Abilene experiment: OSPF convergence,
// the Kansas City compromise, Πk+2 detection and the alert-driven reroute.
// The *fatih.ScenarioResult timeline is returned in Result.Extra.
func runFatihScenario(spec *protocol.Spec, run protocol.RunOptions) (*protocol.Result, error) {
	opts := fatih.ScenarioOptions{Seed: spec.Seed, Telemetry: run.Telemetry}
	if d := spec.Duration.D(); d > 0 {
		opts.Duration = d
	}
	if a := spec.Attack; a != nil {
		if a.Rate != 0 {
			opts.AttackRate = a.Rate
		}
		if a.Start != 0 {
			opts.AttackAt = a.Start.D()
		}
		if a.Kind == "none" {
			// The scenario's compromise is scheduled, not optional: pushing
			// it past the end of the run yields the clean baseline.
			opts.AttackAt = 365 * 24 * time.Hour
		}
	}
	sres := fatih.RunAbilene(opts)
	net := sres.System.Net
	kc, _ := net.Graph().Lookup("KansasCity")
	faulty := kc
	if a := spec.Attack; a != nil && a.Kind == "none" {
		faulty = -1
	}
	return &protocol.Result{
		Spec: spec, Env: protocol.NewSimEnv(net), Net: net,
		Routing: sres.System.Routing, Engine: sres.System,
		Log: sres.System.Log, Faulty: faulty, Extra: sres,
	}, nil
}

func fatihDefaultSpec(seed int64, clean bool) *protocol.Spec {
	spec := &protocol.Spec{
		Name:     "fatih-abilene",
		Protocol: "fatih",
		Seed:     seed,
		Topology: protocol.TopologySpec{Kind: "abilene"},
	}
	if clean {
		spec.Attack = &protocol.AttackSpec{Kind: "none"}
	} else {
		spec.Attack = &protocol.AttackSpec{Kind: "drop", Rate: 0.2}
	}
	return spec
}
