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
	g *Graph
	// dist[dst][u] is the cost from u to dst.
	dist map[packet.NodeID][]int64
	// next[dst][u] lists u's equal-cost next hops toward dst, sorted.
	next map[packet.NodeID][][]packet.NodeID
	// hashKeys key the flow-spreading hash; all routers share them (the
	// deterministic prediction assumption).
	k0, k1 uint64
}

// NewECMP computes the equal-cost forwarding DAGs for every destination.
func NewECMP(g *Graph, k0, k1 uint64) *ECMP {
	e := &ECMP{
		g:    g,
		dist: make(map[packet.NodeID][]int64),
		next: make(map[packet.NodeID][][]packet.NodeID),
		k0:   k0,
		k1:   k1,
	}
	for _, dst := range g.Nodes() {
		dist := e.reverseDijkstra(dst)
		e.dist[dst] = dist
		nh := make([][]packet.NodeID, g.NumNodes())
		for _, u := range g.Nodes() {
			if u == dst || dist[u] == infCost {
				continue
			}
			for _, v := range g.Neighbors(u) {
				l, _ := g.Link(u, v)
				if dist[v] != infCost && dist[v]+int64(l.Cost) == dist[u] {
					nh[u] = append(nh[u], v) // Neighbors() is sorted
				}
			}
		}
		e.next[dst] = nh
	}
	return e
}

const infCost = int64(1) << 62

// reverseDijkstra computes every node's cost to dst (over the reversed
// graph; our graphs are symmetric duplex so costs coincide).
func (e *ECMP) reverseDijkstra(dst packet.NodeID) []int64 {
	n := e.g.NumNodes()
	dist := make([]int64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = infCost
	}
	dist[dst] = 0
	h := distHeap{{node: dst}}
	for len(h) > 0 {
		v := h.pop().node
		if done[v] {
			continue
		}
		done[v] = true
		for _, from := range e.g.Neighbors(v) {
			l, _ := e.g.Link(from, v)
			nd := dist[v] + int64(l.Cost)
			if nd < dist[from] {
				dist[from] = nd
				h.push(distItem{dist: nd, node: from})
			}
		}
	}
	return dist
}

// NextHops returns u's equal-cost next hops toward dst.
func (e *ECMP) NextHops(u, dst packet.NodeID) []packet.NodeID {
	nh := e.next[dst]
	if nh == nil || u < 0 || int(u) >= len(nh) {
		return nil
	}
	return nh[u]
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
		if len(path) > e.g.NumNodes() {
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
	for _, src := range e.g.Nodes() {
		for _, dst := range e.g.Nodes() {
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
