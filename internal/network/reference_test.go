package network

import (
	"routerwatch/internal/packet"
)

// installShortestPathsEager is InstallShortestPaths as it was before the
// static tables became lazy, kept verbatim as the oracle: every router's
// table computed at install time over the graph as it stands. Every next
// hop the lazy tables give must equal what this installs.
func (n *Network) installShortestPathsEager() {
	const unresolved = packet.NodeID(-2)
	var climb []packet.NodeID
	for _, src := range n.graph.Nodes() {
		parent, _ := n.graph.ShortestPathTree(src)
		// next[dst] is the child of src that dst hangs under in the tree.
		// Resolve each by climbing toward src until a node with a known
		// answer, then hand that answer to everything climbed over: every
		// node is climbed over once per source.
		next := make([]packet.NodeID, len(parent))
		for v := range next {
			next[v] = unresolved
			if parent[v] == -1 || packet.NodeID(v) == src {
				next[v] = -1
			}
		}
		for dst := range next {
			v := packet.NodeID(dst)
			climb = climb[:0]
			for next[v] == unresolved && parent[v] != src {
				climb = append(climb, v)
				v = parent[v]
			}
			if next[v] == unresolved {
				next[v] = v
			}
			for _, u := range climb {
				next[u] = next[v]
			}
		}
		r := n.routers[src]
		table := next
		r.SetForwarder(func(p *packet.Packet, _ packet.NodeID) (packet.NodeID, bool) {
			if uint32(p.Dst) >= uint32(len(table)) {
				return -1, false
			}
			nh := table[p.Dst]
			return nh, nh >= 0
		})
	}
}
