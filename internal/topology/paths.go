package topology

import "routerwatch/internal/packet"

// PathTable is the stable-state routing path of every ordered router pair
// (§4.1: "a router can predict the path that a packet will take in the
// stable state"), behind a dense int32 index by src·n+dst, so a path lookup
// is a bounds check and two loads, and beside it each path's second router,
// so a next hop is one. CSR.Paths builds one per topology snapshot,
// and everything that needs the stable-state path reads that one table: the
// network's static forwarders, its control-message senders, the replica
// and every detector's path oracle. The path a monitor predicts is
// therefore the path the routers forward along, not a second computation
// that happens to agree with it; and the table breaks equal-cost ties as
// internal/routing does (CSR.Paths), so a converged routing fabric forwards
// along it too.
type PathTable struct {
	paths []Path
	idx   []int32 // src·n+dst → 1 + index into paths; 0 where none was given
	next  []int32 // src·n+dst → the path's second router; −1 where none
	n     int
}

// NewPathTable indexes explicit per-pair paths, such as paths traced from
// live forwarding tables after a routing change. The table spans n = one
// more than the largest end ID; a path with a negative end or fewer than
// two routers is left out, and of two paths with the same ends the later
// wins. It keeps the paths slice itself, which callers must not mutate
// afterwards.
func NewPathTable(paths []Path) PathTable {
	usable := func(p Path) bool { return len(p) >= 2 && p[0] >= 0 && p[len(p)-1] >= 0 }
	n := 0
	for _, p := range paths {
		if usable(p) {
			n = max(n, int(p[0])+1, int(p[len(p)-1])+1)
		}
	}
	// One allocation for both halves: the path oracle over explicit paths
	// is one index allocation (TestOracleAllocs).
	idx := make([]int32, 2*n*n)
	idx, next := idx[:n*n:n*n], idx[n*n:]
	for k := range next {
		next[k] = -1
	}
	for i, p := range paths {
		if usable(p) {
			k := int(p[0])*n + int(p[len(p)-1])
			idx[k], next[k] = int32(i+1), int32(p[1])
		}
	}
	return PathTable{paths: paths, idx: idx, next: next, n: n}
}

// All returns the paths the table indexes, in the order it was given them.
// The slice is shared; callers must not mutate it.
func (t *PathTable) All() []Path { return t.paths }

// Path returns the path src→dst (nil if none). Either address may lie
// outside the table: a packet's addresses are the sender's to write.
func (t *PathTable) Path(src, dst packet.NodeID) Path {
	if k := t.key(src, dst); k >= 0 && t.idx[k] > 0 {
		return t.paths[t.idx[k]-1]
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
// walk from its source along that column. Paths are packed into shared
// arena chunks in (source, destination) order.
func (c *CSR) buildPaths() PathTable {
	n := c.NumNodes()
	idx := make([]int32, 2*n*n)
	idx, next := idx[:n*n:n*n], idx[n*n:]
	var s sptScratch
	for dst := 0; dst < n; dst++ {
		s.run(c, packet.NodeID(dst))
		for u, p := range s.parent {
			next[u*n+dst] = int32(p)
		}
		next[dst*n+dst] = -1
	}
	paths := make([]Path, 0, n*(n-1))
	var arena Path
	for k, hop := range next {
		if hop < 0 {
			continue
		}
		// A path visits at most n nodes; keep that much headroom so one
		// path never straddles two chunks. A small graph's n(n-1) paths do
		// not need a full chunk.
		if cap(arena)-len(arena) < n {
			arena = make(Path, 0, min(segArenaChunk, n*n)+n)
		}
		start, dst := len(arena), k%n
		arena = append(arena, packet.NodeID(k/n))
		for ; ; hop = next[int(hop)*n+dst] {
			arena = append(arena, packet.NodeID(hop))
			if int(hop) == dst {
				break
			}
		}
		paths = append(paths, arena[start:len(arena):len(arena)])
		idx[k] = int32(len(paths))
	}
	return PathTable{paths: paths, idx: idx, next: next, n: n}
}
