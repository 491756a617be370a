package topology

import "routerwatch/internal/packet"

// CSR is a compressed-sparse-row adjacency: node v's outgoing edges are the
// index range Off[v]..Off[v+1] of To and Cost, in ascending To order, so
// edge indices enumerate the directed links in (from, to) order. It is the
// read-only form every shortest-path kernel iterates: Graph.CSR caches one
// per graph, and internal/routing builds one per recompute from its LSDB.
type CSR struct {
	Off  []int32
	To   []packet.NodeID
	Cost []int64
}

// NumNodes returns the number of nodes the adjacency covers.
func (c *CSR) NumNodes() int {
	if len(c.Off) == 0 {
		return 0
	}
	return len(c.Off) - 1
}

// Row returns v's neighbors in ascending ID order (nil for an unknown node).
// The slice aliases To; callers must not mutate it.
func (c *CSR) Row(v packet.NodeID) []packet.NodeID {
	if int(v) < 0 || int(v) >= c.NumNodes() {
		return nil
	}
	lo, hi := c.Off[v], c.Off[v+1]
	return c.To[lo:hi:hi]
}

// Edge returns the index of the directed link from→to, or -1 if absent.
func (c *CSR) Edge(from, to packet.NodeID) int32 {
	if int(from) < 0 || int(from) >= c.NumNodes() {
		return -1
	}
	lo, hi := c.Off[from], c.Off[from+1]
	for lo < hi {
		mid := lo + (hi-lo)/2
		if c.To[mid] < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < c.Off[from+1] && c.To[lo] == to {
		return lo
	}
	return -1
}

// ShortestPathTree computes a deterministic single-source shortest path tree
// from src using link costs. Ties are broken toward the lower predecessor
// node ID, modeling the deterministic forwarding the paper assumes (§4.1:
// "a router can predict the path that a packet will take in the stable
// state"). It returns parent[v] (the predecessor of v on its path from src;
// parent[src] = src; parent[v] = -1 if unreachable) and dist[v], both the
// caller's to keep.
func (c *CSR) ShortestPathTree(src packet.NodeID) (parent []packet.NodeID, dist []int64) {
	var s sptScratch
	s.run(c, src)
	return s.parent, s.dist
}

// sptScratch holds the buffers of ShortestPathTree's Dijkstra. A run
// overwrites the previous one's answer, so AllPairsPaths reuses one scratch
// for all n sources instead of allocating a buffer set per source.
type sptScratch struct {
	parent []packet.NodeID
	dist   []int64
	done   []bool
	heap   distHeap
}

// run leaves the shortest path tree from src over c in s.parent and s.dist.
func (s *sptScratch) run(c *CSR, src packet.NodeID) {
	n := c.NumNodes()
	if cap(s.parent) < n {
		s.parent, s.dist, s.done = make([]packet.NodeID, n), make([]int64, n), make([]bool, n)
	}
	parent, dist, done := s.parent[:n], s.dist[:n], s.done[:n]
	s.parent, s.dist, s.done = parent, dist, done
	for i := range parent {
		parent[i], dist[i], done[i] = -1, infCost, false
	}
	parent[src] = src
	dist[src] = 0
	h := append(s.heap[:0], distItem{node: src})
	for len(h) > 0 {
		v := h.pop().node
		if done[v] {
			continue
		}
		done[v] = true
		for e := c.Off[v]; e < c.Off[v+1]; e++ {
			to := c.To[e]
			nd := dist[v] + c.Cost[e]
			if nd < dist[to] || (nd == dist[to] && !done[to] && parent[to] != -1 && v < parent[to]) {
				dist[to] = nd
				parent[to] = v
				h.push(distItem{dist: nd, node: to})
			}
		}
	}
	s.heap = h
	for i := range parent {
		if dist[i] == infCost {
			parent[i] = -1
		}
	}
}

// distItem is a tentative distance label on a node.
type distItem struct {
	dist int64
	node packet.NodeID
}

// distHeap is the 4-ary min-heap of (dist, node) behind ShortestPathTree
// and the ECMP distance pass — typed like sim's event heap, so no interface
// dispatch and no boxing per push. (dist, node) is a total order up to
// identical items, so the pop sequence does not depend on the sift
// algorithm.
type distHeap []distItem

func (h distHeap) less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node < h[j].node
}

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	a := *h
	j := len(a) - 1
	for j > 0 {
		i := (j - 1) / 4
		if !a.less(j, i) {
			break
		}
		a[i], a[j] = a[j], a[i]
		j = i
	}
}

// pop removes and returns the minimum item; the heap must be non-empty.
func (h *distHeap) pop() distItem {
	a := *h
	n := len(a) - 1
	a[0], a[n] = a[n], a[0]
	top := a[n]
	a = a[:n]
	*h = a
	i := 0
	for {
		j := 4*i + 1
		if j >= n {
			break
		}
		m := j
		for c := j + 1; c < j+4 && c < n; c++ {
			if a.less(c, m) {
				m = c
			}
		}
		if !a.less(m, i) {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}
