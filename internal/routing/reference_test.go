package routing

import (
	"container/heap"

	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

// The SPF core this package shipped before spf.go, moved here verbatim as
// the oracle: a line-graph Dijkstra per (router, arrival neighbor) over a
// topology.Graph, with a map-backed visited set and container/heap. Every
// table the dense kernels build must equal what this builds.

// referenceTable is the old ComputeTable: rows keyed by arrival context.
func referenceTable(g *topology.Graph, r packet.NodeID, excl *Exclusions) map[packet.NodeID][]packet.NodeID {
	next := make(map[packet.NodeID][]packet.NodeID)
	contexts := append([]packet.NodeID{r}, g.Neighbors(r)...)
	for _, from := range contexts {
		next[from] = computeRow(g, r, from, excl)
	}
	return next
}

// edgeState indexes a directed link for line-graph Dijkstra.
type edgeState struct {
	u, v packet.NodeID
}

type lgItem struct {
	st   edgeState
	dist int64
	// firstHop is the next hop out of the computing router for the path
	// this state lies on; carried through so the row can be filled.
	firstHop packet.NodeID
}

type lgHeap []lgItem

func (h lgHeap) Len() int { return len(h) }
func (h lgHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	if h[i].firstHop != h[j].firstHop {
		return h[i].firstHop < h[j].firstHop
	}
	if h[i].st.u != h[j].st.u {
		return h[i].st.u < h[j].st.u
	}
	return h[i].st.v < h[j].st.v
}
func (h lgHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *lgHeap) Push(x any)     { *h = append(*h, x.(lgItem)) }
func (h *lgHeap) Pop() (out any) { old := *h; n := len(old); out = old[n-1]; *h = old[:n-1]; return }

// computeRow computes next hops at router r for traffic entering from
// neighbor from (or originated locally when from == r).
func computeRow(g *topology.Graph, r, from packet.NodeID, excl *Exclusions) []packet.NodeID {
	n := g.NumNodes()
	row := make([]packet.NodeID, n)
	bestDist := make([]int64, n)
	const inf = int64(1) << 62
	for i := range row {
		row[i] = -1
		bestDist[i] = inf
	}

	type seenKey = edgeState
	seen := make(map[seenKey]bool)
	h := &lgHeap{}

	for _, nb := range g.Neighbors(r) {
		if excl.LinkExcluded(r, nb) {
			continue
		}
		if from != r && excl.TransitionForbidden(from, r, nb) {
			continue
		}
		if from != r && nb == from {
			continue // no immediate U-turn back over the arrival link
		}
		link, _ := g.Link(r, nb)
		heap.Push(h, lgItem{st: edgeState{r, nb}, dist: int64(link.Cost), firstHop: nb})
	}

	for h.Len() > 0 {
		it := heap.Pop(h).(lgItem)
		if seen[it.st] {
			continue
		}
		seen[it.st] = true
		v := it.st.v
		if it.dist < bestDist[v] {
			bestDist[v] = it.dist
			row[v] = it.firstHop
		}
		for _, w := range g.Neighbors(v) {
			next := edgeState{v, w}
			if seen[next] {
				continue
			}
			if excl.LinkExcluded(v, w) {
				continue
			}
			if excl.TransitionForbidden(it.st.u, v, w) {
				continue
			}
			link, _ := g.Link(v, w)
			heap.Push(h, lgItem{st: next, dist: it.dist + int64(link.Cost), firstHop: it.firstHop})
		}
	}
	return row
}

// graphFromLSDB reconstructs the topology as advertised. A link u→v is
// installed iff u advertises v (LSAs are trusted here; securing the control
// plane is §1.1.1's problem, explicitly out of scope for the detectors).
// Physical attributes are copied from the simulator's ground-truth graph.
func (d *Daemon) graphFromLSDB() *topology.Graph {
	truth := d.proto.net.Graph()
	g := topology.NewGraph()
	for _, id := range truth.Nodes() {
		g.AddNode(truth.Name(id))
	}
	for o, lsa := range d.lsdb {
		if lsa == nil {
			continue
		}
		for _, nb := range lsa.Neighbors {
			if l, ok := truth.Link(packet.NodeID(o), nb.ID); ok {
				l.Cost = nb.Cost
				g.AddLink(l)
			}
		}
	}
	return g
}
