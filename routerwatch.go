// Package routerwatch is a library for detecting compromised routers by
// their packet-forwarding behaviour, reproducing Mızrak, Marzullo & Savage's
// work ("Brief Announcement: Detecting Malicious Routers", PODC 2004, and
// the dissertation expanding it).
//
// The library provides:
//
//   - A deterministic network simulator (routers, links, output queues,
//     adversarial behaviours) as the substrate.
//   - Protocol Π2 — traffic validation per path-segment nodes: strong
//     completeness and accuracy with precision 2.
//   - Protocol Πk+2 — traffic validation per path-segment ends: the
//     practical protocol, precision k+2, deployed by the Fatih system.
//   - Protocol χ — per-interface queue replay that infers congestive losses
//     exactly and attributes the rest to malice via calibrated statistical
//     tests (drop-tail and RED).
//   - A link-state routing substrate whose response mechanism excises
//     suspected path-segments from the forwarding fabric.
//   - Baseline protocols (WATCHERS, static threshold, traffic models,
//     PERLMAN, HERZBERG, SecTrace) and the full experiment suite
//     regenerating the paper's figures.
//
// The quickstart in examples/quickstart shows the core loop: build a
// topology, deploy a detector, compromise a router, observe the suspicion
// and the rerouted fabric.
package routerwatch

import (
	"time"

	"routerwatch/internal/attack"
	"routerwatch/internal/detector"
	"routerwatch/internal/detector/chi"
	"routerwatch/internal/detector/pi2"
	"routerwatch/internal/detector/pik2"
	"routerwatch/internal/fatih"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	_ "routerwatch/internal/protocol/catalog"
	"routerwatch/internal/routing"
	"routerwatch/internal/topology"
)

// Core re-exported types. These aliases form the stable public surface;
// the internal packages carry the implementations and their documentation.
type (
	// NodeID identifies a router.
	NodeID = packet.NodeID
	// Packet is a simulated packet.
	Packet = packet.Packet
	// Graph is a network topology.
	Graph = topology.Graph
	// Path is a sequence of adjacent routers.
	Path = topology.Path
	// Segment is a path-segment, the unit of suspicion.
	Segment = topology.Segment
	// Network is the simulator.
	Network = network.Network
	// NetworkOptions configures the simulator.
	NetworkOptions = network.Options
	// Suspicion is a failure detector's output.
	Suspicion = detector.Suspicion
	// SuspicionLog collects suspicions.
	SuspicionLog = detector.Log
	// Dropper is the packet-dropping adversary.
	Dropper = attack.Dropper
	// Scenario is a declarative experiment spec (topology, protocol +
	// options, attack, traffic, seed) executed by RunScenario.
	Scenario = protocol.Spec
	// ScenarioResult is a completed scenario run.
	ScenarioResult = protocol.Result
)

// NewGraph returns an empty topology.
func NewGraph() *Graph { return topology.NewGraph() }

// Abilene returns the 11-PoP Abilene backbone of the Fatih experiments.
func Abilene() *Graph { return topology.Abilene() }

// Line returns a linear topology of n routers.
func Line(n int) *Graph { return topology.Line(n) }

// NewNetwork builds a simulator over a topology.
func NewNetwork(g *Graph, opts NetworkOptions) *Network { return network.New(g, opts) }

// NewLog returns an empty suspicion log.
func NewLog() *SuspicionLog { return detector.NewLog() }

// Protocols lists the registered detection protocols, sorted by name.
func Protocols() []string { return protocol.Names() }

// AttachProtocol deploys a registered protocol by name on a simulated
// network; opts is the protocol's native options value (nil = defaults).
// It returns the attached engine (*pik2.Protocol, *chi.Protocol, …) and
// the log that collects the deployment's suspicions.
func AttachProtocol(net *Network, name string, opts any) (any, *SuspicionLog, error) {
	hooks, log := protocol.LogHooks()
	engine, err := protocol.Attach(protocol.NewSimEnv(net), name, opts, hooks)
	return engine, log, err
}

// RunScenario executes a declarative scenario through the protocol
// registry — the library-level equivalent of `mrsim -scenario`.
func RunScenario(spec *Scenario, opts protocol.RunOptions) (*ScenarioResult, error) {
	return protocol.Run(spec, opts)
}

// AttachPiK2 deploys Protocol Πk+2 (per path-segment ends, precision k+2).
func AttachPiK2(net *Network, opts pik2.Options) *pik2.Protocol {
	return pik2.Attach(protocol.NewSimEnv(net), opts)
}

// AttachPi2 deploys Protocol Π2 (per path-segment nodes, precision 2).
func AttachPi2(net *Network, opts pi2.Options) *pi2.Protocol {
	return pi2.Attach(protocol.NewSimEnv(net), opts)
}

// AttachChi deploys Protocol χ (per-interface queue replay).
func AttachChi(net *Network, opts chi.Options) *chi.Protocol {
	return chi.Attach(protocol.NewSimEnv(net), opts)
}

// AttachRouting deploys the link-state routing substrate with alert-driven
// path-segment exclusion.
func AttachRouting(net *Network, timers routing.Timers) *routing.Protocol {
	return routing.Attach(net, routing.Options{Timers: timers})
}

// DeployFatih assembles the full Fatih system (detector + routing response
// + clock sync) on a network.
func DeployFatih(net *Network, opts fatih.Options) *fatih.System {
	return fatih.Deploy(net, opts)
}

// RunAbileneScenario executes the Fig 5.7 Fatih experiment.
func RunAbileneScenario(opts fatih.ScenarioOptions) *fatih.ScenarioResult {
	return fatih.RunAbilene(opts)
}

// DropAll returns a behaviour dropping every packet — the bluntest
// compromised-router model.
func DropAll() *Dropper { return &attack.Dropper{Select: attack.All, P: 1} }

// DefaultRound is the Fatih prototype's validation interval τ.
const DefaultRound = 5 * time.Second
