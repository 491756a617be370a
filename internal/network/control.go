package network

import (
	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

// ControlMessage is a control-plane message between routers: traffic
// summaries, detection announcements, LSAs, consensus rounds. Control
// messages travel hop by hop along Path and every intermediate compromised
// router may drop them (protocol-faulty behaviour, §2.2.1); payload
// integrity is protected end to end by signatures carried in the payload
// itself — the network never vouches for content.
//
// In flight a message is a pooled envelope the network owns: a control
// handler or Behavior sees it only until it returns, and keeps the Payload
// (or a copy of the fields it needs), never the *ControlMessage.
type ControlMessage struct {
	From    packet.NodeID
	To      packet.NodeID
	Kind    string
	Payload any

	// Path is the hop-by-hop route the sender names: Πk+2 exchanges
	// summaries "through π", χ's reporters route through the queue's
	// router, flooding names the one link. Path[0] must be From,
	// Path[len-1] To, and each hop a link; otherwise the message is lost.
	Path topology.Path

	// direct backs Path for SendControlDirect's two-router path, so a
	// single-hop message needs no path of its own.
	direct [2]packet.NodeID

	// hop is the index into Path of the router currently holding the
	// message.
	hop int
}

// envelopeChunk is the envelope pool's allocation granularity.
const envelopeChunk = 256

// envelopePool is the network's free list of control envelopes, carved in
// chunks like packet.Arena: LIFO, single-goroutine like the simulation. An
// envelope comes back once its message is delivered, dropped by a Behavior
// or lost, zeroed so that a pooled envelope pins no payload or path.
type envelopePool struct {
	chunk []ControlMessage
	free  []*ControlMessage
}

func (p *envelopePool) get() *ControlMessage {
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free = p.free[:n-1]
		return m
	}
	if len(p.chunk) == 0 {
		p.chunk = make([]ControlMessage, envelopeChunk)
	}
	m := &p.chunk[0]
	p.chunk = p.chunk[1:]
	return m
}

func (p *envelopePool) put(m *ControlMessage) {
	*m = ControlMessage{}
	p.free = append(p.free, m)
}

// SendControl sends a control message from m.From to m.To along m.Path.
// The network copies m into an envelope of its own, so the caller's value
// is free once SendControl returns (Path and Payload are shared, not
// copied: the sender must not mutate them while the message travels).
// Delivery invokes the destination router's control handler. Intermediate
// faulty routers may drop the message, and a route that does not start at
// From, end at To and cross a link at every hop loses it like an
// unreachable destination; either way the sender gets no error — protocols
// must use timeouts, exactly as the paper's do.
func (n *Network) SendControl(m ControlMessage) {
	n.tel.ctrlSent.Inc()
	if len(m.Path) == 0 || m.Path[0] != m.From || m.Path[len(m.Path)-1] != m.To ||
		uint(m.From) >= uint(len(n.routers)) {
		return
	}
	e := n.envelopes.get()
	*e = m
	e.hop = 0
	n.relayControl(e)
}

// SendControlDirect sends a single-hop control message to an adjacent
// router (used by flooding and neighbor-to-neighbor protocols); between
// routers with no link it is lost.
func (n *Network) SendControlDirect(from, to packet.NodeID, kind string, payload any) {
	n.tel.ctrlSent.Inc()
	if uint(from) >= uint(len(n.routers)) {
		return
	}
	e := n.envelopes.get()
	*e = ControlMessage{From: from, To: to, Kind: kind, Payload: payload,
		direct: [2]packet.NodeID{from, to}}
	e.Path = e.direct[:]
	n.relayControl(e)
}

// relayControl moves the message one hop, and hands its envelope back to
// the pool where its journey ends.
func (n *Network) relayControl(m *ControlMessage) {
	n.tel.ctrlRelays.Inc()
	cur := m.Path[m.hop]
	r := n.Router(cur)

	// Intermediate (and destination) compromised routers can interfere
	// with transiting control traffic. The originator's own behaviour is
	// not consulted: a protocol-faulty source simply doesn't send, which
	// the protocol layers model directly.
	if m.hop > 0 && r.behavior != nil {
		if r.behavior.OnControl(&r.view, m) == CtrlDrop {
			n.envelopes.put(m)
			return
		}
	}
	if cur == m.To {
		if h := r.controlHandlers[m.Kind]; h != nil {
			h(m)
		}
		n.envelopes.put(m)
		return
	}
	link, ok := n.graph.Link(cur, m.Path[m.hop+1])
	if !ok {
		n.envelopes.put(m) // no link to the next hop: lost here
		return
	}
	n.sched.CallAfter(link.Delay+controlDelay, n.cbRelay, m, 0)
}
