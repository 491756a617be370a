// Package network is the discrete-event network simulator the detection
// protocols run on: routers interconnected by directional point-to-point
// links (§4.1), each link fronted by an output-interface queue at its
// sending router, hop-by-hop forwarding driven by per-router forwarding
// functions, per-router processing jitter, and pluggable adversarial
// behaviours on compromised routers.
//
// The simulator stands in for the paper's PC-router/Emulab testbeds (see
// DESIGN.md): the detection protocols observe only per-router packet events
// (receive, enqueue, dequeue, drop, deliver) and exchange control messages,
// and this package produces exactly that observable surface.
package network

import (
	"fmt"
	"math/rand"
	"time"

	"routerwatch/internal/auth"
	"routerwatch/internal/packet"
	"routerwatch/internal/queue"
	"routerwatch/internal/sim"
	"routerwatch/internal/telemetry"
	"routerwatch/internal/topology"
)

// QueueFactory builds the queue discipline for one directed link's output
// interface.
type QueueFactory func(link topology.Link, rng *rand.Rand) queue.Discipline

// DropTailFactory builds drop-tail queues sized by the link's QueueLimit.
func DropTailFactory(link topology.Link, _ *rand.Rand) queue.Discipline {
	return queue.NewDropTail(link.QueueLimit)
}

// REDFactory returns a QueueFactory building RED queues with the given
// configuration template (Limit/Bandwidth are taken from each link).
func REDFactory(tmpl queue.REDConfig) QueueFactory {
	return func(link topology.Link, rng *rand.Rand) queue.Discipline {
		cfg := tmpl
		if cfg.Limit == 0 {
			cfg.Limit = link.QueueLimit
		}
		cfg.Bandwidth = link.Bandwidth
		return queue.NewRED(cfg, rng)
	}
}

// Options configures a Network.
type Options struct {
	// Seed drives all simulator randomness (jitter, RED coin flips).
	Seed int64

	// ProcessingJitter is the maximum per-packet processing delay inserted
	// between a packet's arrival at a router and its enqueue on the output
	// interface. Uniform in [0, ProcessingJitter]. This is the §6.2.1
	// "short-term scheduling delays and internal processing delays" that
	// make qact − qpred a random variable.
	ProcessingJitter time.Duration

	// QueueFactory builds output queues; nil means drop-tail.
	QueueFactory QueueFactory

	// Telemetry, when non-nil, instruments the simulator: per-router
	// forward/drop counters, queue occupancy histograms, control-plane
	// counters, and (with Telemetry.PacketEvents) per-packet trace
	// instants. Nil disables instrumentation at zero hot-path cost; either
	// way the simulation's behaviour and canonical output are identical —
	// telemetry only observes, it never feeds back.
	Telemetry *telemetry.Set
}

// defaultTTL is the initial TTL of injected packets.
const defaultTTL = 64

// controlDelay is the per-hop latency of control-plane messages on top of
// link propagation delay.
const controlDelay = 100 * time.Microsecond

func (o *Options) fill() {
	if o.QueueFactory == nil {
		o.QueueFactory = DropTailFactory
	}
}

// Network simulates the routers and links of a topology.
type Network struct {
	sched  *sim.Scheduler
	graph  *topology.Graph
	auth   *auth.Authority
	hasher packet.Hasher
	opts   Options

	routers []*Router

	tel netTel

	// cbRelay advances a control message one hop; bound once so per-hop
	// relaying schedules through the pooled callback path.
	cbRelay sim.Callback
	// cbDrain dequeues the head-of-line packet of the *iface it is
	// scheduled with; bound once for every interface of the network.
	cbDrain sim.Callback

	nextPacketID uint64

	// pool serves NewPacket; the network frees a pooled packet after its
	// last event (delivery, a drop, an attacker's silent ActDrop).
	pool packet.Arena

	// envelopes carries every control message in flight (SendControl).
	envelopes envelopePool
}

// netTel is the network's resolved instrumentation: all handles are
// resolved once in New and are nil when telemetry is disabled, making
// every hot-path call a nil-check (see internal/telemetry's disabled-path
// contract).
type netTel struct {
	set      *telemetry.Set
	injected *telemetry.Counter
	// ctrlSent counts originated control messages; ctrlRelays counts
	// per-hop relays (the control-plane load the §5.2.1 overhead tables
	// reason about).
	ctrlSent, ctrlRelays *telemetry.Counter
	// queueIns aggregates output-queue activity across all interfaces.
	queueIns queue.Instrument
	// pktTrace is non-nil only when per-packet trace events are opted in.
	pktTrace *telemetry.Tracer
}

// queueOccupancyBuckets bins queue occupancy (bytes); the top bound covers
// the §6.5 90 kB RED buffers.
var queueOccupancyBuckets = []int64{1_000, 5_000, 15_000, 30_000, 45_000, 60_000, 90_000, 150_000}

// New builds a simulator over the topology.
func New(g *topology.Graph, opts Options) *Network {
	opts.fill()
	n := &Network{
		sched: sim.New(),
		graph: g,
		auth:  auth.NewAuthority(uint64(opts.Seed) + 1),
		opts:  opts,
	}
	k0, k1 := n.auth.FingerprintKeys()
	n.hasher = packet.NewHasher(k0, k1)
	n.cbRelay = func(arg any, _ int64) {
		m := arg.(*ControlMessage)
		m.hop++
		n.relayControl(m)
	}
	n.cbDrain = func(arg any, _ int64) { arg.(*iface).drain() }

	// Resolve instrumentation handles once; with opts.Telemetry == nil the
	// registry accessors return nil instruments and every site below
	// degrades to a nil-check.
	reg := opts.Telemetry.Registry()
	n.tel = netTel{
		set:        opts.Telemetry,
		injected:   reg.Counter("rw_packets_injected_total"),
		ctrlSent:   reg.Counter("rw_control_messages_total"),
		ctrlRelays: reg.Counter("rw_control_relays_total"),
		queueIns: queue.Instrument{
			Enqueued:      reg.Counter("rw_queue_enqueued_total"),
			Dropped:       reg.Counter("rw_queue_dropped_total"),
			DequeuedBytes: reg.Counter("rw_queue_dequeued_bytes_total"),
			Occupancy:     reg.Histogram("rw_queue_occupancy_bytes", queueOccupancyBuckets),
		},
		pktTrace: opts.Telemetry.PacketTracer(),
	}
	n.sched.Instrument(reg.Counter("rw_sim_events_total"), reg.Gauge("rw_sim_pending_max"))
	if tr := opts.Telemetry.Tracer(); tr != nil {
		for _, id := range g.Nodes() {
			if name := g.Name(id); name != "" {
				tr.SetThreadName(int32(id), name)
			}
		}
	}

	n.routers = make([]*Router, g.NumNodes())
	for _, id := range g.Nodes() {
		n.routers[id] = newRouter(n, id)
	}
	// Default forwarding: static shortest paths over the initial topology.
	n.InstallShortestPaths()
	return n
}

// Scheduler exposes the event scheduler.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.sched.Now() }

// Graph returns the topology.
func (n *Network) Graph() *topology.Graph { return n.graph }

// Seed returns the base seed the network was built with. Protocol layers
// derive their own RNG streams from it (sim.DeriveSeed) instead of holding
// private seed copies, which keeps replay deterministic across backends.
func (n *Network) Seed() int64 { return n.opts.Seed }

// Auth returns the key-distribution authority shared by all routers.
func (n *Network) Auth() *auth.Authority { return n.auth }

// Hasher returns the network-wide packet fingerprint function.
func (n *Network) Hasher() packet.Hasher { return n.hasher }

// Telemetry returns the instrumentation set the network was built with
// (nil when telemetry is disabled). Protocol layers attach their own
// instruments through it.
func (n *Network) Telemetry() *telemetry.Set { return n.tel.set }

// Router returns the router with the given ID.
func (n *Network) Router(id packet.NodeID) *Router {
	if int(id) < 0 || int(id) >= len(n.routers) {
		panic(fmt.Sprintf("network: unknown router %v", id))
	}
	return n.routers[id]
}

// Routers returns all routers in ID order.
func (n *Network) Routers() []*Router { return n.routers }

// NextPacketID allocates a unique packet ID.
func (n *Network) NextPacketID() uint64 {
	n.nextPacketID++
	return n.nextPacketID
}

// NewPacket returns a zeroed packet from the network's pool, for Inject.
// The network takes it back after its last event — once the local handler
// has returned on delivery, once the EvDrop taps have run on a TTL,
// no-route or queue drop, or when a Behavior drops it silently — and hands
// it out again, so nothing may keep the pointer past that: a tap, local
// handler or Behavior that needs the packet later keeps a Clone.
func (n *Network) NewPacket() *packet.Packet { return n.pool.New() }

// InstallShortestPaths sets every router's forwarding function to static
// shortest-path next hops over the topology as it stands now (ignoring
// inbound interface): router r sends a packet for dst to the second router
// of r's own path in the snapshot's path table (topology.CSR.Paths), the
// table the detectors predict paths from. The table is built on the first
// forwarding decision, over the adjacency snapshot taken here: a later
// topology mutation cannot change what was installed, and a network whose
// forwarders dynamic routing (internal/routing) replaces first never
// builds it.
func (n *Network) InstallShortestPaths() {
	c := n.graph.CSR()
	for _, r := range n.routers {
		src := r.id
		r.SetForwarder(func(p *packet.Packet, _ packet.NodeID) (packet.NodeID, bool) {
			nh := c.Paths().NextHop(src, p.Dst)
			return nh, nh >= 0
		})
	}
}

// Inject originates a packet at router src toward p.Dst. The packet gets an
// ID, TTL and send timestamp if unset. Injection models traffic from a host
// behind the (good, per §2.1.4) terminal router. A packet from NewPacket is
// reused after its last event, so the caller must not touch it once Inject
// returns; a packet built any other way is never reused.
func (n *Network) Inject(src packet.NodeID, p *packet.Packet) {
	if p.ID == 0 {
		p.ID = n.NextPacketID()
	}
	if p.TTL == 0 {
		p.TTL = defaultTTL
	}
	p.Src = src
	p.SentAt = n.sched.Now()
	n.tel.injected.Inc()
	r := n.Router(src)
	r.emit(Event{Kind: EvInject, Packet: p})
	r.forward(p, src)
}

// Run advances the simulation until the given virtual time.
func (n *Network) Run(until time.Duration) { n.sched.RunUntil(until) }
