// Package fatih assembles the Fatih prototype system of §5.3: the
// Coordinator scheduling validation rounds, per-segment Traffic Validators
// (Protocol Πk+2), the kernel Traffic Summary Generator (packet
// fingerprints via router taps), the link-state Routing Daemon with
// alert-driven path-segment exclusion, and NTP-style time synchronization —
// Fig 5.5's architecture on the simulated network.
package fatih

import (
	"time"

	"routerwatch/internal/clocksync"
	"routerwatch/internal/detector"
	"routerwatch/internal/detector/pik2"
	"routerwatch/internal/detector/tvinfo"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/routing"
	"routerwatch/internal/topology"
)

// Options configures a Fatih deployment.
type Options struct {
	// K is the AdjacentFault(k) bound; the prototype is configured with
	// k=1 ("each router monitors all 3-path segments originating from
	// itself", §5.3.1), "the most common capabilities available to an
	// attacker".
	K int
	// Round is the validation round τ (prototype: 5 s).
	Round time.Duration
	// Timeout is the summary exchange timeout µ.
	Timeout time.Duration
	// Timers are the OSPF delay/hold timers (prototype: 5 s / 10 s).
	Timers routing.Timers
	// LossThreshold tolerates benign per-round losses per segment.
	LossThreshold int
	// FabricationThreshold tolerates benign per-round extra packets.
	FabricationThreshold int
	// ClockSkew is the initial clock error bound before NTP sync;
	// ResidualSkew the post-sync bound (prototype: "within a few
	// milliseconds").
	ClockSkew, ResidualSkew time.Duration
	// Sink receives all suspicions.
	Sink detector.Sink
}

func (o *Options) fill() {
	if o.K == 0 {
		o.K = 1
	}
	if o.Round == 0 {
		o.Round = 5 * time.Second
	}
	if o.Timeout == 0 {
		o.Timeout = time.Second
	}
	if o.Timers == (routing.Timers{}) {
		o.Timers = routing.DefaultTimers()
	}
	if o.LossThreshold == 0 {
		o.LossThreshold = 3
	}
	if o.FabricationThreshold == 0 {
		o.FabricationThreshold = 3
	}
	if o.ClockSkew == 0 {
		o.ClockSkew = 100 * time.Millisecond
	}
	if o.ResidualSkew == 0 {
		o.ResidualSkew = 2 * time.Millisecond
	}
	if o.Sink == nil {
		o.Sink = func(detector.Suspicion) {}
	}
}

// System is a running Fatih deployment.
type System struct {
	Net      *network.Network
	Routing  *routing.Protocol
	Detector *pik2.Protocol
	Clocks   *clocksync.Model
	Log      *detector.Log

	opts Options
	// Reroutes records each table recomputation (router, time).
	Reroutes []RerouteEvent
}

// RerouteEvent is one routing-table installation.
type RerouteEvent struct {
	Router packet.NodeID
	At     time.Duration
}

// Deploy attaches the full Fatih stack to the network.
func Deploy(net *network.Network, opts Options) *System {
	opts.fill()
	env := protocol.NewSimEnv(net)
	s := &System{Net: net, Log: detector.NewLog(), opts: opts}

	// Time synchronization (§5.3.1): NTP keeps router clocks within a few
	// milliseconds — orders of magnitude below τ, which is why validation
	// rounds can be treated as aligned across routers.
	s.Clocks = clocksync.New(net.Graph().NumNodes(), opts.ClockSkew, opts.ResidualSkew, 0x5A71)
	s.Clocks.Sync()

	// Link-state routing daemon with alert-driven exclusion. Every table
	// recomputation marks the detector's path oracle dirty; the
	// Coordinator refreshes it once the wave settles ("the coordinator is
	// kept abreast of routing changes so that it always knows which
	// path-segments should be monitored", §5.3.1).
	s.Routing = routing.Attach(net, routing.Options{Timers: opts.Timers})
	dirty := false
	tr := net.Telemetry().Tracer()
	rerouteCtr := net.Telemetry().Registry().Counter("rw_reroutes_total")
	for _, d := range s.Routing.Daemons() {
		d := d
		d.OnRecompute(func(at time.Duration) {
			s.Reroutes = append(s.Reroutes, RerouteEvent{Router: d.ID(), At: at})
			rerouteCtr.Inc()
			if tr != nil {
				tr.Instant("ospf-recompute", "routing", at, int32(d.ID()), "")
			}
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
		K:       opts.K,
		Round:   opts.Round,
		Timeout: opts.Timeout,
		Policy:  pik2.PolicyContent,
		Thresholds: tvinfo.Thresholds{
			Loss:        opts.LossThreshold,
			Fabrication: opts.FabricationThreshold,
		},
		Sink: detector.Tee(detector.LogSink(s.Log), opts.Sink, s.Routing.Respond),
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

// ExcludedSegments returns the segments excised from the routing fabric at
// router r.
func (s *System) ExcludedSegments(r packet.NodeID) []topology.Segment {
	return s.Routing.Daemon(r).Exclusions().Segments()
}
