package topology

import "routerwatch/internal/packet"

// PathTable is the stable-state routing path of every ordered router pair
// (§4.1: "a router can predict the path that a packet will take in the
// stable state"), behind a dense int32 index by src·n+dst, so a path lookup
// is a bounds check and three loads, and beside it each path's second
// router, so a next hop is one. CSR.Paths builds one per topology snapshot,
// and everything that needs the stable-state path reads that one table: the
// network's static forwarders, its control-message senders, the replica
// and every detector's path oracle. The path a monitor predicts is
// therefore the path the routers forward along, not a second computation
// that happens to agree with it; and the table breaks equal-cost ties as
// internal/routing does (CSR.Paths), so a converged routing fabric forwards
// along it too.
//
// The paths themselves lie back to back in one exact-size arena of router
// IDs, addressed by int32 offsets: however many paths the table holds, its
// only pointers are its own four slice headers, so the collector has
// nothing in it to scan.
type PathTable struct {
	nodes []packet.NodeID // every path, back to back, in table order
	off   []int32         // path i is nodes[off[i]:off[i+1]]
	idx   []int32         // src·n+dst → 1 + index of the pair's path; 0 where none
	next  []int32         // src·n+dst → the path's second router; −1 where none
	n     int
}

// NewPathTable indexes explicit per-pair paths, such as paths traced from
// live forwarding tables after a routing change, copying them into the
// table's arena. The index spans n = one more than the largest end ID; a
// path with a negative end or fewer than two routers is held but not
// indexed, and of two paths with the same ends the later is indexed.
func NewPathTable(paths []Path) PathTable {
	usable := func(p Path) bool { return len(p) >= 2 && p[0] >= 0 && p[len(p)-1] >= 0 }
	n, total := 0, 0
	for _, p := range paths {
		total += len(p)
		if usable(p) {
			n = max(n, int(p[0])+1, int(p[len(p)-1])+1)
		}
	}
	// One allocation for the three int32 columns and one for the arena
	// (TestOracleAllocs).
	cols := make([]int32, 2*n*n+len(paths)+1)
	idx, next, off := cols[:n*n:n*n], cols[n*n:2*n*n:2*n*n], cols[2*n*n:]
	for k := range next {
		next[k] = -1
	}
	nodes := make([]packet.NodeID, 0, total)
	for i, p := range paths {
		nodes = append(nodes, p...)
		off[i+1] = int32(len(nodes))
		if usable(p) {
			k := int(p[0])*n + int(p[len(p)-1])
			idx[k], next[k] = int32(i+1), int32(p[1])
		}
	}
	return PathTable{nodes: nodes, off: off, idx: idx, next: next, n: n}
}

// Len returns the number of paths the table holds: for a table built by
// NewPathTable, every path it was given.
func (t *PathTable) Len() int { return max(len(t.off)-1, 0) }

// At returns the table's i-th path, 0 ≤ i < Len(): in the order the table
// was given them, or by (source, destination) for CSR.Paths. The path
// aliases the table; callers must not mutate it.
func (t *PathTable) At(i int) Path {
	lo, hi := t.off[i], t.off[i+1]
	return t.nodes[lo:hi:hi]
}

// Path returns the path src→dst (nil if none). Either address may lie
// outside the table: a packet's addresses are the sender's to write.
func (t *PathTable) Path(src, dst packet.NodeID) Path {
	if k := t.key(src, dst); k >= 0 && t.idx[k] > 0 {
		return t.At(int(t.idx[k]) - 1)
	}
	return nil
}

// NextHop returns the second router of r's own path to dst: where static
// forwarding at r sends a packet for dst. It is −1 when r is dst, dst is
// unreachable, or either lies outside the table.
func (t *PathTable) NextHop(r, dst packet.NodeID) packet.NodeID {
	if k := t.key(r, dst); k >= 0 {
		return packet.NodeID(t.next[k])
	}
	return -1
}

// key returns src·n+dst, or −1 when either address lies outside the table.
func (t *PathTable) key(src, dst packet.NodeID) int {
	if uint(src) >= uint(t.n) || uint(dst) >= uint(t.n) { // a negative ID wraps past n
		return -1
	}
	return int(src)*t.n + int(dst)
}

// Paths returns the stable-state path table of the adjacency, computing it
// on first use and caching it on c. A CSR is a snapshot: whoever holds this
// one keeps its paths after the graph is mutated, which drops only the
// graph's cached CSR. Like Graph.CSR, the first call is not safe
// concurrently with another; callers must not mutate the result.
func (c *CSR) Paths() *PathTable {
	if c.paths == nil {
		c.paths = c.newPaths() // out of line, so every forwarding decision inlines Paths
	}
	return c.paths
}

func (c *CSR) newPaths() *PathTable {
	t := c.buildPaths()
	return &t
}

// buildPaths computes the path of every ordered router pair by the rule
// routing forwards by: each router sends a packet for dst to its lowest-ID
// neighbour of least cost to dst. One Dijkstra per destination gives that
// neighbour as the tree parent (ShortestPathTree), so the tree's parent
// column is the table's next-hop column toward dst, and each path is the
// walk from its source along that column. The same pass counts each
// path's hops up the tree, so the arena is allocated once at its exact
// size and filled in (source, destination) order.
func (c *CSR) buildPaths() PathTable {
	n := c.NumNodes()
	cols := make([]int32, 2*n*n)
	idx, next := cols[:n*n:n*n], cols[n*n:]
	// A heap never holds more than one entry per edge plus the root.
	s := sptScratch{heap: make(distHeap, 0, len(c.To)+1)}
	// depth[u] is the hop count of u's path to the current destination,
	// −1 until known.
	depth := make([]int32, n)
	paths, total := 0, 0
	for dst := 0; dst < n; dst++ {
		s.run(c, packet.NodeID(dst))
		for u, p := range s.parent {
			next[u*n+dst] = int32(p)
			depth[u] = -1
		}
		next[dst*n+dst] = -1
		depth[dst] = 0
		for u, p := range s.parent {
			if p < 0 || depth[u] >= 0 {
				continue
			}
			// Climb to the first router of known depth, then label the
			// climb on a second pass down from u.
			d, v := int32(0), packet.NodeID(u)
			for ; depth[v] < 0; v = s.parent[v] {
				d++
			}
			d += depth[v]
			for v = packet.NodeID(u); depth[v] < 0; v = s.parent[v] {
				depth[v] = d
				d--
			}
		}
		for _, d := range depth {
			if d > 0 {
				paths++
				total += int(d) + 1
			}
		}
	}
	off := make([]int32, 1, paths+1)
	nodes := make([]packet.NodeID, 0, total)
	for k, hop := range next {
		if hop < 0 {
			continue
		}
		dst := k % n
		nodes = append(nodes, packet.NodeID(k/n))
		for ; ; hop = next[int(hop)*n+dst] {
			nodes = append(nodes, packet.NodeID(hop))
			if int(hop) == dst {
				break
			}
		}
		off = append(off, int32(len(nodes)))
		idx[k] = int32(len(off) - 1)
	}
	return PathTable{nodes: nodes, off: off, idx: idx, next: next, n: n}
}
