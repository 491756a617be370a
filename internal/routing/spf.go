package routing

import (
	"sync"

	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

// The SPF core. A table row answers, for one arrival context at router r
// (a neighbor the traffic came from, or r itself for local traffic): over
// every walk that leaves r on an allowed first hop, uses no excised link
// and makes no forbidden transition, which first hop starts the walk with
// the least (cost, first hop) to each destination. Walks may revisit nodes,
// r included; only the first hop may not return over the arrival link.
//
// Two kernels compute that same minimum. Which one runs is decided by the
// exclusion set alone — whether any transition is forbidden — never by an
// option:
//
//   - nodeRows, when no transition is forbidden (every run until the first
//     suspicion of a 3-or-longer segment). Walk legality then depends only
//     on the links used, so states are nodes, and the contexts differ only
//     in which first hop they ban. One Dijkstra per router settles, per
//     node, the best label and the best label with another first hop; the
//     row of the context that bans first hop f reads the second wherever
//     the first starts with f.
//   - edgeRow, otherwise. Legality of a step depends on the link the walk
//     arrived over, so states are directed links (the line graph), indexed
//     densely by CSR edge number, one Dijkstra per arrival context.
//
// Both order labels by (dist, first hop); the heap's final key — the node
// or the edge index, i.e. (from, to) order — only ranks equal labels and
// cannot change a row.

const spfInf = int64(1) << 62

// spfItem is a tentative label on state id (a node in nodeRows, an edge
// index in edgeRow).
type spfItem struct {
	dist     int64
	firstHop packet.NodeID
	id       int32
}

// spfHeap is a 4-ary min-heap ordered by (dist, firstHop, id), specialized
// like sim's event heap: no interface dispatch, no boxing, and a backing
// array reused across computations. The order is total up to identical
// items, so the pop sequence does not depend on the sift algorithm.
type spfHeap []spfItem

func (h spfHeap) less(i, j int) bool {
	a, b := &h[i], &h[j]
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.firstHop != b.firstHop {
		return a.firstHop < b.firstHop
	}
	return a.id < b.id
}

func (h *spfHeap) push(it spfItem) {
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
func (h *spfHeap) pop() spfItem {
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

// spfScratch is the working memory of one table computation. It is pooled
// per worker, not kept per daemon: a 500-router fabric recomputes on a
// handful of goroutines, and 500 idle copies are pure resident set.
type spfScratch struct {
	// csr is the adjacency a daemon rebuilds from its LSDB.
	csr  topology.CSR
	heap spfHeap
	// dist and hop hold the tentative labels: two per node in nodeRows
	// (slot 2v the best, 2v+1 the best with another first hop), one per
	// edge in edgeRow.
	dist []int64
	hop  []packet.NodeID
	// dead[e] marks an excised link, mid[v] a node some forbidden
	// transition passes through, src[e] the tail of edge e.
	dead []bool
	mid  []bool
	src  []packet.NodeID
}

var spfPool = sync.Pool{New: func() any { return new(spfScratch) }}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// computeTable builds router r's table over adjacency c.
func (s *spfScratch) computeTable(c *topology.CSR, r packet.NodeID, excl *Exclusions) *Table {
	n, nbrs := c.NumNodes(), c.Row(r)
	t := newTable(n, nbrs)
	if len(nbrs) == 0 {
		fillNone(t.rows[0])
		return t
	}
	s.dead = grow(s.dead, len(c.To))
	clear(s.dead)
	for l := range excl.links {
		if e := c.Edge(l[0], l[1]); e >= 0 {
			s.dead[e] = true
		}
	}
	if len(excl.trans) == 0 {
		s.nodeRows(c, r, t, nbrs)
		return t
	}

	s.mid = grow(s.mid, n)
	clear(s.mid)
	for tr := range excl.trans {
		if v := tr[1]; int(v) >= 0 && int(v) < n {
			s.mid[v] = true
		}
	}
	s.src = grow(s.src, len(c.To))
	for v := 0; v < n; v++ {
		for e := c.Off[v]; e < c.Off[v+1]; e++ {
			s.src[e] = packet.NodeID(v)
		}
	}
	s.dist = grow(s.dist, len(c.To))
	s.hop = grow(s.hop, len(c.To))
	s.edgeRow(c, r, r, excl, t.rows[0])
	for i, from := range nbrs {
		s.edgeRow(c, r, from, excl, t.rows[1+i])
	}
	return t
}

func fillNone(row []packet.NodeID) {
	for i := range row {
		row[i] = -1
	}
}

// nodeRows fills every row of t with one node-state Dijkstra from r.
func (s *spfScratch) nodeRows(c *topology.CSR, r packet.NodeID, t *Table, nbrs []packet.NodeID) {
	n := c.NumNodes()
	s.dist = grow(s.dist, 2*n)
	s.hop = grow(s.hop, 2*n)
	for i := range s.dist {
		s.dist[i] = spfInf
		s.hop[i] = -1
	}
	s.heap = s.heap[:0]
	for e := c.Off[r]; e < c.Off[r+1]; e++ {
		if !s.dead[e] {
			s.relax(c.To[e], c.Cost[e], c.To[e])
		}
	}
	for len(s.heap) > 0 {
		it := s.heap.pop()
		v := it.id
		// Stale unless it is still one of v's two labels. A label is pushed
		// once, when it enters a slot, so a live one is expanded once.
		if i := 2 * v; (s.dist[i] != it.dist || s.hop[i] != it.firstHop) &&
			(s.dist[i+1] != it.dist || s.hop[i+1] != it.firstHop) {
			continue
		}
		for e := c.Off[v]; e < c.Off[v+1]; e++ {
			if !s.dead[e] {
				s.relax(c.To[e], it.dist+c.Cost[e], it.firstHop)
			}
		}
	}

	local := t.rows[0]
	for v := range local {
		local[v] = s.hop[2*v]
	}
	for i, from := range nbrs {
		row := t.rows[1+i]
		for v := range row {
			h := s.hop[2*v]
			if h == from {
				h = s.hop[2*v+1]
			}
			row[v] = h
		}
	}
}

// relax offers node v the label (d, first hop f). v keeps its best label
// and its best label with a different first hop: a third first hop can
// never be read by any context, nor extend to a label that is (two better
// ones extend alongside it).
func (s *spfScratch) relax(v packet.NodeID, d int64, f packet.NodeID) {
	i := 2 * int(v)
	dist, hop := s.dist[i:i+2:i+2], s.hop[i:i+2:i+2]
	switch {
	case f == hop[0]:
		if d >= dist[0] {
			return
		}
		dist[0] = d
	case d < dist[0] || d == dist[0] && f < hop[0]:
		dist[1], hop[1] = dist[0], hop[0]
		dist[0], hop[0] = d, f
	case f == hop[1]:
		if d >= dist[1] {
			return
		}
		dist[1] = d
	case d < dist[1] || d == dist[1] && f < hop[1]:
		dist[1], hop[1] = d, f
	default:
		return
	}
	s.heap.push(spfItem{dist: d, firstHop: f, id: int32(v)})
}

// edgeRow fills the row of arrival context from (r itself for local
// traffic) with a Dijkstra over directed links.
func (s *spfScratch) edgeRow(c *topology.CSR, r, from packet.NodeID, excl *Exclusions, row []packet.NodeID) {
	fillNone(row)
	dist, hop := s.dist, s.hop
	for i := range dist {
		dist[i] = spfInf
	}
	s.heap = s.heap[:0]
	for e := c.Off[r]; e < c.Off[r+1]; e++ {
		nb := c.To[e]
		if s.dead[e] {
			continue
		}
		// No immediate U-turn over the arrival link, and no transition the
		// arrival link makes forbidden.
		if from != r && (nb == from || s.mid[r] && excl.TransitionForbidden(from, r, nb)) {
			continue
		}
		dist[e], hop[e] = c.Cost[e], nb
		s.heap.push(spfItem{dist: c.Cost[e], firstHop: nb, id: e})
	}
	for len(s.heap) > 0 {
		it := s.heap.pop()
		e := it.id
		if dist[e] != it.dist || hop[e] != it.firstHop {
			continue // superseded by a better label
		}
		u, v := s.src[e], c.To[e]
		if row[v] < 0 {
			row[v] = it.firstHop
		}
		guarded := s.mid[v]
		for e2 := c.Off[v]; e2 < c.Off[v+1]; e2++ {
			if s.dead[e2] || guarded && excl.TransitionForbidden(u, v, c.To[e2]) {
				continue
			}
			nd := it.dist + c.Cost[e2]
			if nd < dist[e2] || nd == dist[e2] && it.firstHop < hop[e2] {
				dist[e2], hop[e2] = nd, it.firstHop
				s.heap.push(spfItem{dist: nd, firstHop: it.firstHop, id: e2})
			}
		}
	}
}
