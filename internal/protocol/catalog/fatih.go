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
	clean := false
	if a := spec.Attack; a != nil {
		if a.Rate != 0 {
			opts.AttackRate = a.Rate
		}
		if a.Start != 0 {
			opts.AttackAt = a.Start.D()
		}
		if a.Kind == "none" {
			clean = true
			// The scenario's compromise is scheduled, not optional: pushing
			// it past the end of the run yields the clean baseline.
			opts.AttackAt = 365 * 24 * time.Hour
		}
	}
	// The result is filled in once Fatih is assembled, so that run's
	// BeforeRun sees it as RunGeneric's does.
	res := &protocol.Result{Spec: spec}
	opts.BeforeRun = func(r *fatih.ScenarioResult) {
		net := r.System.Net
		kc, _ := net.Graph().Lookup("KansasCity")
		res.Env, res.Net = protocol.NewSimEnv(net), net
		res.Routing, res.Engine, res.Log = r.System.Routing, r.System, r.System.Log
		res.Faulty, res.FaultySet, res.Extra = kc, []packet.NodeID{kc}, r
		if clean {
			res.Faulty, res.FaultySet = -1, nil
		}
		if run.BeforeRun != nil {
			run.BeforeRun(res)
		}
	}
	sres := fatih.RunAbilene(opts)
	if run.Progress != nil {
		run.Progress("routing converged at %v\n", sres.ConvergedAt)
		run.Progress("attack at %v: KansasCity drops 20%% of transit traffic\n", sres.AttackAt)
		run.Progress("first detection at %v, first reroute at %v\n", sres.FirstDetectionAt, sres.RerouteAt)
	}
	return res, nil
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
