// Package fatih assembles the Fatih prototype system of §5.3: the
// Coordinator scheduling validation rounds, per-segment Traffic Validators
// (Protocol Πk+2), the kernel Traffic Summary Generator (packet
// fingerprints via router taps), the link-state Routing Daemon with
// alert-driven path-segment exclusion — Fig 5.5's architecture on the
// simulated network.
package fatih

import (
	"time"

	"routerwatch/internal/detector"
	"routerwatch/internal/detector/pik2"
	"routerwatch/internal/detector/tvinfo"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/routing"
	"routerwatch/internal/topology"
)

// The prototype's configuration (§5.3.1), the only one the paper reports and
// the only one any caller has run.
const (
	// k is the AdjacentFault(k) bound: "each router monitors all 3-path
	// segments originating from itself", "the most common capabilities
	// available to an attacker".
	k = 1
	// round is the validation round τ.
	round = 5 * time.Second
	// timeout is the summary exchange timeout µ.
	timeout = time.Second
	// lossThreshold and fabricationThreshold tolerate benign per-round
	// losses and extra packets per segment.
	lossThreshold        = 3
	fabricationThreshold = 3
)

// System is a running Fatih deployment.
type System struct {
	Net      *network.Network
	Routing  *routing.Protocol
	Detector *pik2.Protocol
	Log      *detector.Log

	// Reroutes records each table recomputation (router, time).
	Reroutes []RerouteEvent
}

// RerouteEvent is one routing-table installation.
type RerouteEvent struct {
	Router packet.NodeID
	At     time.Duration
}

// Deploy attaches the full Fatih stack to the network. Router clocks are
// the simulator's: §5.3.1's NTP keeps them within a few milliseconds, orders
// of magnitude below τ, which is why validation rounds are treated as
// aligned across routers.
func Deploy(net *network.Network) *System {
	env := protocol.NewSimEnv(net)
	s := &System{Net: net, Log: detector.NewLog()}

	// Link-state routing daemon with alert-driven exclusion (its alerts
	// ride the flood Πk+2's alerts ride), at routing's default timers —
	// the prototype's OSPF delay 5 s / hold 10 s. Every table
	// recomputation marks the detector's path oracle dirty; the
	// Coordinator refreshes it once the wave settles ("the coordinator is
	// kept abreast of routing changes so that it always knows which
	// path-segments should be monitored", §5.3.1).
	s.Routing = routing.Attach(net, env.Flood(), routing.Timers{})
	dirty := false
	for _, d := range s.Routing.Daemons() {
		d := d
		d.OnRecompute(func(at time.Duration) {
			s.Reroutes = append(s.Reroutes, RerouteEvent{Router: d.ID(), At: at})
			dirty = true
		})
	}
	env.Every(time.Second, func() {
		if !dirty {
			return
		}
		dirty = false
		s.refreshDetectorPaths()
	})

	// The Coordinator + Traffic Validators: Πk+2 with the response loop —
	// the routing daemons' announcement — teed in after the log.
	s.Detector = pik2.Attach(env, pik2.Options{
		K:       k,
		Round:   round,
		Timeout: timeout,
		Policy:  tvinfo.PolicyContent,
		Thresholds: tvinfo.Thresholds{
			Loss:        lossThreshold,
			Fabrication: fabricationThreshold,
		},
		Sink: detector.Tee(detector.LogSink(s.Log), s.Routing.Respond),
	})
	return s
}

// refreshDetectorPaths traces the current forwarding paths (including
// exclusions) and swaps the detector's prediction oracle.
func (s *System) refreshDetectorPaths() {
	tables := make(map[packet.NodeID]*routing.Table)
	for _, d := range s.Routing.Daemons() {
		if t := d.Table(); t != nil {
			tables[d.ID()] = t
		}
	}
	g := s.Net.Graph()
	var paths []topology.Path
	for _, src := range g.Nodes() {
		for _, dst := range g.Nodes() {
			if src == dst {
				continue
			}
			if p := routing.PathFromTables(tables, src, dst, 4*g.NumNodes()); p != nil {
				paths = append(paths, p)
			}
		}
	}
	s.Detector.RefreshPaths(paths)
}

// Converged reports whether routing has converged.
func (s *System) Converged() bool { return s.Routing.Converged() }
