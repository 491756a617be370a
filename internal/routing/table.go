// Package routing implements the link-state routing substrate the detection
// protocols assume (§2.1.6, §4.1): LSA flooding, deterministic shortest-path
// computation, and — the response mechanism of §2.4.3/§5.3.1 — policy-based
// forwarding that excises suspected path-segments from the routing fabric.
//
// Exclusions are realized as excised links and forbidden transitions: a
// suspected 2-segment ⟨a,b⟩ removes the directed link a→b, and a suspected
// x-segment forbids each of its interior transitions ⟨u,v,w⟩ (routing on
// the line graph, whose states are directed links), so no traffic traverses
// the segment while the adjacent routers remain usable on other paths —
// exactly the "less aggressive countermeasure" the paper selects.
package routing

import (
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

// Exclusions is the set of suspected path-segments removed from the routing
// fabric.
type Exclusions struct {
	segments map[topology.SegmentKey]topology.Segment
	links    map[[2]packet.NodeID]bool
	trans    map[[3]packet.NodeID]bool
}

// NewExclusions returns an empty exclusion set.
func NewExclusions() *Exclusions {
	return &Exclusions{
		segments: make(map[topology.SegmentKey]topology.Segment),
		links:    make(map[[2]packet.NodeID]bool),
		trans:    make(map[[3]packet.NodeID]bool),
	}
}

// Add excises a path-segment: a 2-segment removes its directed link; longer
// segments forbid each interior transition. Adding a segment of length < 2
// is a no-op. It reports whether the segment was new.
func (e *Exclusions) Add(seg topology.Segment) bool {
	if len(seg) < 2 {
		return false
	}
	key := topology.Key(seg)
	if _, ok := e.segments[key]; ok {
		return false
	}
	e.segments[key] = append(topology.Segment(nil), seg...)
	if len(seg) == 2 {
		e.links[[2]packet.NodeID{seg[0], seg[1]}] = true
		return true
	}
	for i := 0; i+2 < len(seg); i++ {
		e.trans[[3]packet.NodeID{seg[i], seg[i+1], seg[i+2]}] = true
	}
	return true
}

// Has reports whether the exact segment was excluded.
func (e *Exclusions) Has(seg topology.Segment) bool {
	_, ok := e.segments[topology.Key(seg)]
	return ok
}

// Segments returns all excluded segments.
func (e *Exclusions) Segments() []topology.Segment {
	ss := make(topology.SegmentSet)
	for _, seg := range e.segments {
		ss.Add(seg)
	}
	return ss.Slice()
}

// Len returns the number of excluded segments.
func (e *Exclusions) Len() int { return len(e.segments) }

// LinkExcluded reports whether the directed link u→v is excised.
func (e *Exclusions) LinkExcluded(u, v packet.NodeID) bool {
	return e.links[[2]packet.NodeID{u, v}]
}

// TransitionForbidden reports whether forwarding u→v→w is excised.
func (e *Exclusions) TransitionForbidden(u, v, w packet.NodeID) bool {
	return e.trans[[3]packet.NodeID{u, v, w}]
}

// Table is a computed forwarding table for one router: next hop keyed by
// (inbound neighbor, destination). The inbound dimension implements the
// paper's policy-based routing (§5.3.1): traffic that arrived along the
// prefix of a suspected segment must not continue along its suffix.
//
// A table takes one of two forms, fixed by the kernel that computed it
// (spf.go). The node kernel's contexts differ only in the first hop they
// ban, so its table keeps the kernel's two labels per destination and picks
// at lookup: best[dst], and alt[dst], the best with another first hop, read
// exactly where best[dst] is the neighbor the packet came from (no U-turn
// over the arrival link). The edge kernel's contexts differ arbitrarily, so
// its table keeps a row per context.
type Table struct {
	// hops is the node form, nil in the edge form: best[dst] at 2·dst and
	// alt[dst] at 2·dst+1, -1 where unreachable.
	hops []packet.NodeID
	// rows[i][dst] = next hop, -1 if unreachable (edge form only). Row 0
	// serves locally originated traffic, row 1+i traffic arriving from the
	// router's i-th neighbor (ascending ID).
	rows [][]packet.NodeID
	// rowOf[from] is the row for inbound neighbor from; 0 for every other
	// node, the router itself included.
	rowOf []int32
}

// newEdgeTable allocates the edge-form table of a router with neighbors
// nbrs, n destinations per row.
func newEdgeTable(n int, nbrs []packet.NodeID) *Table {
	t := &Table{rows: make([][]packet.NodeID, 1+len(nbrs)), rowOf: make([]int32, n)}
	cells := make([]packet.NodeID, len(t.rows)*n)
	for i := range t.rows {
		t.rows[i] = cells[i*n : (i+1)*n : (i+1)*n]
	}
	for i, nb := range nbrs {
		t.rowOf[nb] = int32(1 + i)
	}
	return t
}

// NextHop returns the next hop for a packet from inbound neighbor from
// (equal to the table's router for locally originated traffic) toward dst.
// An unknown inbound neighbor (e.g. mis-delivered traffic) is served as
// locally originated traffic, which has no transition constraint.
func (t *Table) NextHop(from, dst packet.NodeID) (packet.NodeID, bool) {
	if t.hops != nil {
		i := 2 * int(dst)
		if uint(i) >= uint(len(t.hops)) {
			return -1, false
		}
		nh := t.hops[i]
		if nh == from {
			nh = t.hops[i+1]
		}
		return nh, nh >= 0
	}
	row := t.rows[0]
	if uint32(from) < uint32(len(t.rowOf)) {
		row = t.rows[t.rowOf[from]]
	}
	if uint32(dst) >= uint32(len(row)) {
		return -1, false
	}
	nh := row[dst]
	return nh, nh >= 0
}

// ComputeTable builds router r's forwarding table over graph g with the
// given exclusions (see spf.go for the kernels).
func ComputeTable(g *topology.Graph, r packet.NodeID, excl *Exclusions) *Table {
	s := spfPool.Get().(*spfScratch)
	t := s.computeTable(g.CSR(), r, excl)
	spfPool.Put(s)
	return t
}

// PathFromTables traces the path a packet from src to dst takes under the
// given per-router tables, for tests and experiments. It returns nil if the
// packet would be dropped (no route) and caps at maxHops to catch loops.
func PathFromTables(tables map[packet.NodeID]*Table, src, dst packet.NodeID, maxHops int) topology.Path {
	path := topology.Path{src}
	from := src
	cur := src
	for cur != dst {
		if len(path) > maxHops {
			return nil
		}
		tbl := tables[cur]
		if tbl == nil {
			return nil
		}
		nh, ok := tbl.NextHop(from, dst)
		if !ok {
			return nil
		}
		from = cur
		cur = nh
		path = append(path, cur)
	}
	return path
}

// Timers are the OSPF-style route computation timers the Fatih evaluation
// depends on (§5.3.2): Delay before recomputing after a triggering event,
// Hold between consecutive computations.
type Timers struct {
	Delay time.Duration
	Hold  time.Duration
}

// DefaultTimers returns the Zebra defaults used in the paper: 5 s delay,
// 10 s hold.
func DefaultTimers() Timers {
	return Timers{Delay: 5 * time.Second, Hold: 10 * time.Second}
}
