package network

import (
	"math"

	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

// forwardingRule is the stable-state forwarding rule computed by brute
// force over the graph as it stands, the oracle static forwarding is held
// to: router r sends a packet for dst to its lowest-ID neighbour v
// minimising cost(r,v) + dist(v,dst), with dist read off the shortest path
// tree rooted at dst — the rule internal/routing's "(cost, first hop)"
// minimum applies. next[r][dst] is −1 where r is dst or dst is unreachable.
func forwardingRule(g *topology.Graph) (next [][]packet.NodeID) {
	n := g.NumNodes()
	next = make([][]packet.NodeID, n)
	for r := range next {
		next[r] = make([]packet.NodeID, n)
	}
	for dst := range n {
		parent, dist := g.CSR().ShortestPathTree(packet.NodeID(dst))
		for r := range n {
			best, hop := int64(math.MaxInt64), packet.NodeID(-1)
			for _, v := range g.Neighbors(packet.NodeID(r)) {
				l, _ := g.Link(packet.NodeID(r), v)
				if cost := int64(l.Cost) + dist[v]; r != dst && parent[v] != -1 && cost < best {
					best, hop = cost, v
				}
			}
			next[r][dst] = hop
		}
	}
	return next
}
