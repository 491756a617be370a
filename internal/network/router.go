package network

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/queue"
	"routerwatch/internal/sim"
	"routerwatch/internal/telemetry"
	"routerwatch/internal/topology"
)

// Forwarder decides the next hop for a packet arriving at a router. from is
// the upstream neighbor the packet arrived from (equal to the router's own
// ID for locally originated traffic), which enables the policy-based
// routing of §5.3.1 where forwarding depends on the inbound path-segment.
type Forwarder func(p *packet.Packet, from packet.NodeID) (next packet.NodeID, ok bool)

// Action is an adversarial verdict on a transiting packet.
type Action int

// Behaviour actions.
const (
	// ActForward forwards the packet normally.
	ActForward Action = iota
	// ActDrop silently drops the packet (traffic faulty, §2.2.1).
	ActDrop
	// ActModify forwards the packet after the behaviour mutated it.
	ActModify
	// ActDivert forwards to Verdict.NewNext instead of the routed next hop
	// (misrouting).
	ActDivert
	// ActDelay holds the packet for Verdict.Delay before forwarding.
	ActDelay
)

// Verdict is a Behavior's decision about one packet.
type Verdict struct {
	Action  Action
	NewNext packet.NodeID
	Delay   time.Duration
}

// ControlVerdict is a Behavior's decision about a transiting control
// message.
type ControlVerdict int

// Control verdicts.
const (
	// CtrlForward relays the message.
	CtrlForward ControlVerdict = iota
	// CtrlDrop drops it (protocol faulty, §2.2.1).
	CtrlDrop
)

// Behavior is the adversarial hook on a compromised router. Correct routers
// have a nil Behavior.
type Behavior interface {
	// OnForward is consulted for every data packet the router is about to
	// enqueue toward next. It must not keep p after it returns: a pooled
	// packet is reused after its last event (Network.NewPacket), so a
	// Behavior that needs the packet later keeps a Clone.
	OnForward(rv *RouterView, p *packet.Packet, next packet.NodeID) Verdict
	// OnControl is consulted for every transiting control message. It
	// must not keep m after it returns: the envelope is the network's and
	// carries another message next (ControlMessage); a Behavior may keep
	// m.Payload, but must not mutate a payload in place — the sender and
	// every other receiver of a flood share it.
	OnControl(rv *RouterView, m *ControlMessage) ControlVerdict
}

// RouterView is the attacker's (and instrumentation's) window onto a
// router's local state.
type RouterView struct {
	r *Router
}

// Now returns the current virtual time.
func (v *RouterView) Now() time.Duration { return v.r.net.sched.Now() }

// QueueBytes returns the occupancy of the output queue toward next, or -1
// if there is no such interface.
func (v *RouterView) QueueBytes(next packet.NodeID) int {
	if ifc := v.r.port(next); ifc != nil {
		return ifc.q.Bytes()
	}
	return -1
}

// QueueLimit returns the capacity of the output queue toward next, or -1.
func (v *RouterView) QueueLimit(next packet.NodeID) int {
	if ifc := v.r.port(next); ifc != nil {
		return ifc.q.Limit()
	}
	return -1
}

// REDAvg returns the RED average queue size toward next, or -1 if the
// interface is not RED.
func (v *RouterView) REDAvg(next packet.NodeID) float64 {
	if ifc := v.r.port(next); ifc != nil {
		if red, ok := queue.Unwrap(ifc.q).(*queue.RED); ok {
			return red.State().Avg()
		}
	}
	return -1
}

// Router is one simulated router.
type Router struct {
	id  packet.NodeID
	net *Network
	rng *rand.Rand

	// ifaces are the router's output interfaces, one per neighbour in the
	// graph's neighbour order; port finds one by a scan, the degree being
	// a handful.
	ifaces []iface

	forwarder Forwarder
	behavior  Behavior
	view      RouterView

	taps []func(Event)

	// tel holds this router's resolved telemetry handles (all nil when
	// telemetry is disabled; see internal/telemetry's disabled-path
	// contract).
	tel routerTel

	// cbForward, cbTransmit and cbReceive are the router's per-packet
	// scheduling callbacks, bound once at construction: the hot path
	// schedules them through sim.CallAfter with (packet, neighbor) as
	// arguments instead of allocating a capturing closure per packet.
	cbForward  sim.Callback
	cbTransmit sim.Callback
	cbReceive  sim.Callback

	localHandler    func(*packet.Packet)
	controlHandlers map[string]func(*ControlMessage)
}

// routerTel is one router's per-router instrumentation, resolved once at
// construction.
type routerTel struct {
	received  *telemetry.Counter
	forwarded *telemetry.Counter
	delivered *telemetry.Counter
	// drops is indexed by queue.DropReason; every reason gets a counter so
	// the hot path never consults the registry.
	drops [8]*telemetry.Counter
}

func newRouter(n *Network, id packet.NodeID) *Router {
	r := &Router{
		id:  id,
		net: n,
		rng: sim.NewRNG(n.opts.Seed*1_000_003 + int64(id)),
	}
	r.view = RouterView{r: r}
	r.cbForward = func(arg any, from int64) { r.forward(arg.(*packet.Packet), packet.NodeID(from)) }
	r.cbTransmit = func(arg any, next int64) { r.transmit(arg.(*packet.Packet), packet.NodeID(next)) }
	r.cbReceive = func(arg any, from int64) { r.receive(arg.(*packet.Packet), packet.NodeID(from)) }
	if reg := n.tel.set.Registry(); reg != nil {
		label := strconv.Itoa(int(id))
		r.tel.received = reg.Counter("rw_packets_received_total", "router", label)
		r.tel.forwarded = reg.Counter("rw_packets_forwarded_total", "router", label)
		r.tel.delivered = reg.Counter("rw_packets_delivered_total", "router", label)
		for reason := int(queue.DropCongestion); reason <= int(queue.DropNoRoute); reason++ {
			r.tel.drops[reason] = reg.Counter("rw_packets_dropped_total",
				"router", label, "cause", queue.DropReason(reason).String())
		}
	}
	nbs := n.graph.Neighbors(id)
	r.ifaces = make([]iface, len(nbs))
	for i, nb := range nbs {
		link, _ := n.graph.Link(id, nb)
		q := n.opts.QueueFactory(link, r.rng)
		if n.tel.set.Registry() != nil {
			q = queue.Instrumented(q, n.tel.queueIns)
		}
		r.ifaces[i] = iface{r: r, link: link, q: q}
	}
	return r
}

// port returns the router's interface toward next, nil if it has none.
func (r *Router) port(next packet.NodeID) *iface {
	for i := range r.ifaces {
		if r.ifaces[i].link.To == next {
			return &r.ifaces[i]
		}
	}
	return nil
}

// ID returns the router's node ID.
func (r *Router) ID() packet.NodeID { return r.id }

// SetForwarder installs the forwarding function.
func (r *Router) SetForwarder(f Forwarder) { r.forwarder = f }

// SetBehavior installs (or clears, with nil) the adversarial behaviour.
func (r *Router) SetBehavior(b Behavior) { r.behavior = b }

// Behavior returns the installed behaviour, nil for correct routers.
func (r *Router) Behavior() Behavior { return r.behavior }

// SetLocalHandler registers the host stack invoked for packets destined to
// this router. The handler must not keep the packet after it returns: the
// network reuses a pooled packet once delivery is over (Network.NewPacket).
func (r *Router) SetLocalHandler(h func(*packet.Packet)) { r.localHandler = h }

// HandleControl registers the handler for control messages of the given
// kind addressed to this router. Each kind has at most one handler;
// re-registering replaces it. Messages with no handler are dropped. The
// handler must not keep m after it returns: the network reuses the
// envelope for a later message once delivery is over. It may keep
// m.Payload.
func (r *Router) HandleControl(kind string, h func(*ControlMessage)) {
	if r.controlHandlers == nil {
		r.controlHandlers = make(map[string]func(*ControlMessage))
	}
	r.controlHandlers[kind] = h
}

// AddTap registers an observer of this router's local packet events.
// Detectors attach here; each router only ever observes its own events. A
// tap must not keep Event.Packet after it returns (see Event.Packet).
func (r *Router) AddTap(tap func(Event)) { r.taps = append(r.taps, tap) }

// InjectTransit hands a packet directly to the router's forwarding path as
// if it had arrived from neighbor from. It models a compromised router
// fabricating traffic (§2.2.1): no receive event is emitted, because the
// claimed upstream never actually sent the packet.
func (r *Router) InjectTransit(p *packet.Packet, from packet.NodeID) {
	r.forward(p, from)
}

func (r *Router) emit(ev Event) {
	ev.Time = r.net.sched.Now()
	ev.Router = r.id
	// Telemetry rides the same event stream the detectors tap. Disabled
	// instruments are nil: each case costs a nil-check and nothing else
	// (the allocation-guard test pins this sequence at 0 allocs).
	switch ev.Kind {
	case EvReceive:
		r.tel.received.Inc()
	case EvDequeue:
		r.tel.forwarded.Inc()
	case EvDeliver:
		r.tel.delivered.Inc()
	case EvDrop:
		if int(ev.Reason) < len(r.tel.drops) {
			r.tel.drops[ev.Reason].Inc()
		}
	}
	if pt := r.net.tel.pktTrace; pt != nil {
		arg := ""
		if ev.Kind == EvDrop {
			arg = ev.Reason.String()
		}
		pt.Instant(ev.Kind.String(), "net", ev.Time, int32(r.id), arg)
	}
	for _, tap := range r.taps {
		tap(ev)
	}
}

// receive is invoked when a packet finishes arriving over the link from
// upstream neighbor from. Processing jitter models variable scheduling and
// internal-multiplexing delay (§6.2.1) but is order-preserving per inbound
// neighbor: a real router pipeline delays a stream without reordering it,
// and same-flow reordering would spuriously trigger TCP fast retransmit.
func (r *Router) receive(p *packet.Packet, from packet.NodeID) {
	r.emit(Event{Kind: EvReceive, Packet: p, Peer: from})
	j := r.net.opts.ProcessingJitter
	if j <= 0 {
		// No processing delay is modelled, so no event is spent on one:
		// every packet of the stream forwards at its receive instant and
		// none can be pending to overtake. The test is on the model
		// parameter, never on the draw: a draw of 0 under jitter must still
		// queue behind the stream's pending cbForward.
		r.forward(p, from)
		return
	}
	now := r.net.sched.Now()
	t := now + time.Duration(r.rng.Int63n(int64(j)+1))
	// The stream is the link from→r, whose sending interface keeps its
	// far end's processing horizon: a receive always comes off one.
	up := r.net.routers[from].port(r.id)
	t = max(t, up.farProcess)
	up.farProcess = t
	r.net.sched.CallAfter(t-now, r.cbForward, p, int64(from))
}

// forward routes and transmits a packet. from is the upstream neighbor (or
// the router's own ID for local traffic).
func (r *Router) forward(p *packet.Packet, from packet.NodeID) {
	if p.Dst == r.id {
		r.emit(Event{Kind: EvDeliver, Packet: p, Peer: from})
		if r.localHandler != nil {
			r.localHandler(p)
		}
		r.net.pool.Free(p)
		return
	}
	if from != r.id { // transit traffic decrements TTL
		if p.TTL <= 1 {
			r.drop(Event{Packet: p, Reason: queue.DropTTL, Peer: from})
			return
		}
		p.TTL--
	}
	if r.forwarder == nil {
		panic(fmt.Sprintf("network: router %v has no forwarder", r.id))
	}
	next, ok := r.forwarder(p, from)
	if !ok {
		r.drop(Event{Packet: p, Reason: queue.DropNoRoute, Peer: from})
		return
	}

	if r.behavior != nil {
		v := r.behavior.OnForward(&r.view, p, next)
		switch v.Action {
		case ActDrop:
			// Malicious drops are silent: no tap event. The compromised
			// router does not advertise its crime; detection must come
			// from other routers' observations.
			r.net.pool.Free(p)
			return
		case ActDivert:
			if v.NewNext >= 0 {
				next = v.NewNext
			}
		case ActDelay:
			r.net.sched.CallAfter(v.Delay, r.cbTransmit, p, int64(next))
			return
		case ActModify, ActForward:
			// Packet already mutated in place for ActModify.
		}
	}
	r.transmit(p, next)
}

// transmit enqueues the packet on the output interface toward next.
func (r *Router) transmit(p *packet.Packet, next packet.NodeID) {
	ifc := r.port(next)
	if ifc == nil {
		r.drop(Event{Packet: p, Reason: queue.DropNoRoute, Peer: next})
		return
	}
	ifc.enqueue(p)
}

// drop ends ev.Packet's life at this router: the EvDrop taps see it, then
// the pool takes it back.
func (r *Router) drop(ev Event) {
	ev.Kind = EvDrop
	r.emit(ev)
	r.net.pool.Free(ev.Packet)
}

// iface is one output interface: a queue draining onto a link. The line is
// modelled by a timestamp, not an event: freeAt is when the serialisation in
// progress ends, and a drain event is scheduled there only while a packet
// waits for it (DESIGN.md "Hot path", the per-hop event contract).
type iface struct {
	r    *Router
	link topology.Link
	q    queue.Discipline

	// freeAt is when the line finishes serialising the last dequeued
	// packet. drainEv is the event that will dequeue the next one then; it
	// is live only while the queue is non-empty, so an idle interface holds
	// nothing in the scheduler.
	freeAt  time.Duration
	drainEv sim.Handle

	// farProcess is the latest processing time the far end has scheduled
	// for a packet off this link, so its jitter never reorders the link's
	// stream.
	farProcess time.Duration
}

func (i *iface) enqueue(p *packet.Packet) {
	sched := i.r.net.sched
	now := sched.Now()
	if now >= i.freeAt && !i.drainEv.Canceled() {
		// The line frees at this very instant and its drain event is still
		// behind this one in the heap. The departure goes first — p finds
		// the queue as the waiting packet's exit leaves it — so what an
		// arrival sees never depends on which of the two events was
		// scheduled earlier.
		i.drainEv.Cancel()
		i.drain()
	}
	reason := i.q.Enqueue(p, now)
	if reason != queue.DropNone {
		i.r.drop(Event{Packet: p, Reason: reason, Peer: i.link.To, QueueBytes: i.q.Bytes()})
		return
	}
	i.r.emit(Event{Kind: EvEnqueue, Packet: p, Peer: i.link.To, QueueBytes: i.q.Bytes()})
	switch {
	case !i.drainEv.Canceled():
		// p waits its turn behind the packet the pending drain will take.
	case now >= i.freeAt:
		i.drain()
	default:
		i.drainEv = sched.CallAfter(i.freeAt-now, i.r.net.cbDrain, i, 0)
	}
}

// drain starts serialising the head-of-line packet: it exits Q now, the line
// is taken until now+tx, and the downstream router receives it one
// propagation delay after that. Only a packet left waiting behind it costs
// a further event.
func (i *iface) drain() {
	sched := i.r.net.sched
	now := sched.Now()
	p := i.q.Dequeue(now)
	i.r.emit(Event{Kind: EvDequeue, Packet: p, Peer: i.link.To, QueueBytes: i.q.Bytes()})
	tx := i.link.TransmissionTime(p.Size)
	i.freeAt = now + tx
	sched.CallAfter(tx+i.link.Delay, i.r.net.routers[i.link.To].cbReceive, p, int64(i.r.id))
	if i.q.Len() > 0 {
		i.drainEv = sched.CallAfter(tx, i.r.net.cbDrain, i, 0)
	}
}
