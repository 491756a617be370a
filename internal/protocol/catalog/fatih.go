package catalog

import (
	"time"

	"routerwatch/internal/fatih"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
)

func init() {
	protocol.Register(protocol.Descriptor{
		Name:        "fatih",
		Precision:   3,
		Summary:     "Fatih (§5.3): full prototype — Πk+2 + link-state routing with alert-driven exclusion",
		Scenario:    runFatihScenario,
		DefaultSpec: fatihDefaultSpec,
	})
}

// runFatihScenario runs the Fig 5.7 Abilene experiment: OSPF convergence,
// the Kansas City compromise, Πk+2 detection and the alert-driven reroute.
// Fatih deploys its own routing fabric on its own network, so the
// descriptor has no Attach and the prototype's configuration (§5.3.1) no
// textual options. The *fatih.ScenarioResult timeline is returned in
// Result.Extra and narrated through run.Progress.
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
	if run.Progress != nil {
		run.Progress("routing converged at %v\n", sres.ConvergedAt)
		run.Progress("attack at %v: KansasCity drops 20%% of transit traffic\n", sres.AttackAt)
		run.Progress("first detection at %v, first reroute at %v\n", sres.FirstDetectionAt, sres.RerouteAt)
	}
	net := sres.System.Net
	kc, _ := net.Graph().Lookup("KansasCity")
	faulty, faultySet := kc, []packet.NodeID{kc}
	if a := spec.Attack; a != nil && a.Kind == "none" {
		faulty, faultySet = -1, nil
	}
	return &protocol.Result{
		Spec: spec, Env: protocol.NewSimEnv(net), Net: net,
		Routing: sres.System.Routing, Engine: sres.System,
		Log: sres.System.Log, Faulty: faulty, FaultySet: faultySet, Extra: sres,
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
