package topology

import "routerwatch/internal/packet"

// DegreeHistogram returns counts indexed by node degree (out-degree; equal
// to undirected degree on duplex graphs).
func DegreeHistogram(g *Graph) []int {
	var hist []int
	for _, id := range g.Nodes() {
		d := g.Degree(id)
		for len(hist) <= d {
			hist = append(hist, 0)
		}
		hist[d]++
	}
	return hist
}

// Diameter returns the longest shortest path in hops (ignoring link costs),
// or -1 for a disconnected graph. O(V·(V+E)) breadth-first sweeps — fine at
// generator scale (thousands of nodes), not meant for the hot path.
func Diameter(g *Graph) int {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	dist := make([]int, n)
	queue := make([]packet.NodeID, 0, n)
	diameter := 0
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		queue = append(queue[:0], packet.NodeID(s))
		dist[s] = 0
		reached := 1
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, nb := range g.Neighbors(v) {
				if dist[nb] == -1 {
					dist[nb] = dist[v] + 1
					if dist[nb] > diameter {
						diameter = dist[nb]
					}
					reached++
					queue = append(queue, nb)
				}
			}
		}
		if reached < n {
			return -1
		}
	}
	return diameter
}

// CrossRegionLinks counts duplex links whose endpoints lie in different
// regions: the backbone of an ISP-generated topology.
func CrossRegionLinks(g *Graph) int {
	cross := 0
	for _, l := range g.Links() {
		if g.Region(l.From) != g.Region(l.To) {
			cross++
		}
	}
	return cross / 2
}
