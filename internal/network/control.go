package network

import (
	"time"

	"routerwatch/internal/auth"
	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

// ControlMessage is a control-plane message between routers: traffic
// summaries, detection announcements, LSAs, consensus rounds. Control
// messages travel hop by hop and every intermediate compromised router may
// drop them (protocol-faulty behaviour, §2.2.1); payload integrity is
// protected end to end by signatures carried in the payload itself.
type ControlMessage struct {
	ID   uint64
	From packet.NodeID
	To   packet.NodeID
	Kind string
	// Payload is protocol-specific. Protocols attach auth.Signature values
	// inside their payloads; the network never vouches for content.
	Payload any
	// Sig optionally authenticates (Kind, Payload identity) at the
	// transport level using the sender's key.
	Sig auth.Signature

	// Path, when non-nil, pins the hop-by-hop route (Πk+2 exchanges
	// summaries "through π"). Path[0] must be From and Path[len-1] To.
	Path topology.Path

	// hop is the index into Path of the router currently holding the
	// message.
	hop int
}

// SendControl sends a control message from m.From to m.To along the current
// shortest path (or along m.Path if set). Delivery invokes the destination
// router's control handler. Intermediate faulty routers may drop the
// message; the sender gets no error — protocols must use timeouts, exactly
// as the paper's do.
func (n *Network) SendControl(m *ControlMessage) {
	n.nextControlID++
	m.ID = n.nextControlID
	n.tel.ctrlSent.Inc()
	if m.Path == nil {
		parent, _ := n.graph.ShortestPathTree(m.From)
		m.Path = topology.PathBetween(parent, m.From, m.To)
		if m.Path == nil {
			return // unreachable; silently lost like any partitioned traffic
		}
	}
	if len(m.Path) == 0 || m.Path[0] != m.From || m.Path[len(m.Path)-1] != m.To {
		panic("network: control path endpoints do not match message")
	}
	m.hop = 0
	n.relayControl(m)
}

// SendControlDirect sends a single-hop control message to an adjacent
// router (used by flooding and neighbor-to-neighbor protocols). It panics
// if the routers are not adjacent.
func (n *Network) SendControlDirect(from, to packet.NodeID, kind string, payload any, sig auth.Signature) {
	if !n.graph.HasLink(from, to) {
		panic("network: SendControlDirect between non-adjacent routers")
	}
	m := &ControlMessage{From: from, To: to, Kind: kind, Payload: payload, Sig: sig,
		Path: topology.Path{from, to}}
	n.SendControl(m)
}

// relayControl moves the message one hop.
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
			return
		}
	}
	if cur == m.To {
		if h := r.controlHandlers[m.Kind]; h != nil {
			h(m)
		}
		return
	}
	nextHop := m.Path[m.hop+1]
	link, ok := n.graph.Link(cur, nextHop)
	var delay time.Duration
	if ok {
		delay = link.Delay
	}
	delay += n.opts.ControlDelay
	n.sched.CallAfter(delay, n.cbRelay, m, 0)
}
