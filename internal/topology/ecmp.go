package topology

import (
	"encoding/binary"

	"routerwatch/internal/packet"
)

// ECMP models equal-cost multipath forwarding (§7.4.1): where several
// next hops tie on cost, routers spread flows across them with a
// deterministic hash — "a router can predict the path that a packet will
// take in the stable state based on its own routing tables and the hash
// functions" (Cisco CEF / Juniper IP ASIC behaviour the paper cites).
type ECMP struct {
	// next[dst][u] lists u's equal-cost next hops toward dst, ascending.
	next [][][]packet.NodeID
	// hashKeys key the flow-spreading hash; all routers share them (the
	// deterministic prediction assumption).
	k0, k1 uint64
}

// NewECMP computes the equal-cost forwarding DAGs for every destination:
// one shortest path tree per destination (the run CSR.Paths makes) gives
// every router's cost to it, and u's next hops are the neighbours v with
// cost(u,v) + dist(v) = dist(u). The first of them is the tree parent, so
// NextHops(u, dst)[0] is the stable-state table's NextHop(u, dst).
func NewECMP(g *Graph, k0, k1 uint64) *ECMP {
	c := g.CSR()
	n := c.NumNodes()
	e := &ECMP{next: make([][][]packet.NodeID, n), k0: k0, k1: k1}
	var s sptScratch
	for dst := range e.next {
		s.run(c, packet.NodeID(dst))
		nh := make([][]packet.NodeID, n)
		for u := range nh {
			if u == dst || s.dist[u] == infCost {
				continue
			}
			for i := c.Off[u]; i < c.Off[u+1]; i++ {
				if v := c.To[i]; s.dist[v]+c.Cost[i] == s.dist[u] {
					nh[u] = append(nh[u], v) // a CSR row is sorted
				}
			}
		}
		e.next[dst] = nh
	}
	return e
}

// NextHops returns u's equal-cost next hops toward dst.
func (e *ECMP) NextHops(u, dst packet.NodeID) []packet.NodeID {
	if uint(dst) >= uint(len(e.next)) || uint(u) >= uint(len(e.next)) {
		return nil
	}
	return e.next[dst][u]
}

// FlowNextHop returns the deterministic hash-selected next hop for a flow
// at router u toward dst (-1 if unreachable).
func (e *ECMP) FlowNextHop(u, dst packet.NodeID, flow packet.FlowID) packet.NodeID {
	hops := e.NextHops(u, dst)
	switch len(hops) {
	case 0:
		return -1
	case 1:
		return hops[0]
	}
	h := packet.NewHasher(e.k0, e.k1)
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(flow))
	binary.BigEndian.PutUint32(buf[8:], uint32(u))
	binary.BigEndian.PutUint32(buf[12:], uint32(dst))
	return hops[h.HashBytes(buf[:])%uint64(len(hops))]
}

// FlowPath traces the full deterministic path of a flow (nil if
// unreachable). Equal-cost DAGs are acyclic, so this terminates.
func (e *ECMP) FlowPath(src, dst packet.NodeID, flow packet.FlowID) Path {
	if src == dst {
		return Path{src}
	}
	path := Path{src}
	cur := src
	for cur != dst {
		nxt := e.FlowNextHop(cur, dst, flow)
		if nxt < 0 {
			return nil
		}
		cur = nxt
		path = append(path, cur)
		if len(path) > len(e.next) {
			return nil // defensive; cannot happen on a cost DAG
		}
	}
	return path
}

// MultipathPairs counts (src, dst) pairs whose forwarding has at least one
// ECMP split — the prevalence of multipath on the topology (Teixeira et
// al.'s measurement, §2.1.3, motivates the good-path assumption).
func (e *ECMP) MultipathPairs() int {
	count := 0
	n := packet.NodeID(len(e.next))
	for src := packet.NodeID(0); src < n; src++ {
		for dst := packet.NodeID(0); dst < n; dst++ {
			if src == dst {
				continue
			}
			// A pair is multipath if any node on any of its paths has >1
			// next hop; approximate by walking the flow-0 path.
			for _, u := range e.FlowPath(src, dst, 0) {
				if u != dst && len(e.NextHops(u, dst)) > 1 {
					count++
					break
				}
			}
		}
	}
	return count
}
