package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"routerwatch/internal/consensus"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

// checkTable fails unless got answers as the reference table of router r
// does. For every arrival context — r itself and each neighbor — and every
// destination, NextHop reads that context's reference row. Any other
// sender, in the graph or not, reads r's own row (mis-delivered traffic),
// and a destination outside the graph has no next hop.
func checkTable(t testing.TB, g *topology.Graph, r packet.NodeID, excl *Exclusions, got *Table) {
	t.Helper()
	want := referenceTable(g, r, excl)
	n := packet.NodeID(g.NumNodes())
	for from := packet.NodeID(-1); from <= n; from++ {
		row, ok := want[from]
		if !ok {
			row = want[r]
		}
		for dst := packet.NodeID(-1); dst <= n; dst++ {
			nh := packet.NodeID(-1)
			if dst >= 0 && dst < n {
				nh = row[dst]
			}
			if h, ok := got.NextHop(from, dst); h != nh || ok != (nh >= 0) {
				t.Fatalf("router %v (%d links, %d transitions excluded): NextHop(%v, %v) = %v/%v, reference row says %v",
					r, len(excl.links), len(excl.trans), from, dst, h, ok, nh)
			}
		}
	}
}

// randomGraph draws a connected graph of 5–45 nodes with costs 1–3: a
// random tree, extra duplex links, some pairs re-added with another cost
// (AddLink replaces), and a few one-directional cost overrides.
func randomGraph(rng *rand.Rand) *topology.Graph {
	n := 5 + rng.Intn(41)
	g := topology.NewGraph()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	duplex := func(a, b packet.NodeID) {
		attrs := topology.DefaultLinkAttrs()
		attrs.Cost = 1 + rng.Intn(3)
		g.AddDuplex(a, b, attrs)
	}
	for i := 1; i < n; i++ {
		duplex(packet.NodeID(i), packet.NodeID(rng.Intn(i)))
	}
	for i := rng.Intn(2 * n); i > 0; i-- {
		if a, b := rng.Intn(n), rng.Intn(n); a != b {
			duplex(packet.NodeID(a), packet.NodeID(b))
		}
	}
	links := g.Links()
	for i := rng.Intn(4); i > 0; i-- {
		l := links[rng.Intn(len(links))]
		l.Cost = 1 + rng.Intn(3)
		g.AddLink(l)
	}
	return g
}

// randomSegment walks length nodes through g from a random start; a walk
// may revisit nodes, as a suspected segment of a looping path could.
func randomSegment(rng *rand.Rand, g *topology.Graph, length int) topology.Segment {
	seg := topology.Segment{packet.NodeID(rng.Intn(g.NumNodes()))}
	for len(seg) < length {
		nbrs := g.Neighbors(seg[len(seg)-1])
		seg = append(seg, nbrs[rng.Intn(len(nbrs))])
	}
	return seg
}

// exclusionSets returns the three shapes the kernels must agree on: none
// (node kernel), links only (node kernel over a thinned graph), and a mix
// of 2-, 3- and 4-segments (edge kernel).
func exclusionSets(rng *rand.Rand, g *topology.Graph) []*Exclusions {
	linksOnly, mixed := NewExclusions(), NewExclusions()
	for i := 0; i < 1+g.NumNodes()/8; i++ {
		linksOnly.Add(randomSegment(rng, g, 2))
		mixed.Add(randomSegment(rng, g, 2+i%3))
		mixed.Add(randomSegment(rng, g, 3))
	}
	// Segments over links and nodes the graph does not have must be inert.
	far := packet.NodeID(g.NumNodes() + 3)
	linksOnly.Add(topology.Segment{0, far})
	mixed.Add(topology.Segment{far, 0, 1})
	mixed.Add(topology.Segment{0, far, 1})
	return []*Exclusions{NewExclusions(), linksOnly, mixed}
}

func TestSPFMatchesReference(t *testing.T) {
	graphs := []*topology.Graph{topology.ISP(topology.ISPSpec{Nodes: 96, PoPs: 4, Seed: 11})}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 40; i++ {
		graphs = append(graphs, randomGraph(rng))
	}
	for _, g := range graphs {
		for _, excl := range exclusionSets(rng, g) {
			for _, r := range g.Nodes() {
				checkTable(t, g, r, excl, ComputeTable(g, r, excl))
			}
		}
	}
}

// fuzzInput decodes a graph and an exclusion set from bytes: the node
// count, then (a, b, flags) links — cost flags&3, zero allowed, one
// direction only when flags&4 — until a 0xff byte, then segments of
// 2–4 nodes, which may name one node beyond the graph.
func fuzzInput(data []byte) (*topology.Graph, *Exclusions) {
	g, excl := topology.NewGraph(), NewExclusions()
	if len(data) == 0 {
		return g, excl
	}
	n := 1 + int(data[0])%16
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	data = data[1:]
	for len(data) >= 3 && data[0] != 0xff {
		a, b, flags := packet.NodeID(int(data[0])%n), packet.NodeID(int(data[1])%n), data[2]
		data = data[3:]
		if a == b {
			continue
		}
		attrs := topology.DefaultLinkAttrs()
		attrs.Cost = int(flags & 3)
		if flags&4 != 0 {
			g.AddLink(topology.Link{From: a, To: b, Cost: attrs.Cost})
		} else {
			g.AddDuplex(a, b, attrs)
		}
	}
	if len(data) > 0 {
		data = data[1:]
	}
	for len(data) > 0 {
		length := 2 + int(data[0])%3
		data = data[1:]
		if len(data) < length {
			break
		}
		seg := make(topology.Segment, length)
		for i := range seg {
			seg[i] = packet.NodeID(int(data[i]) % (n + 1))
		}
		data = data[length:]
		excl.Add(seg)
	}
	return g, excl
}

func FuzzComputeTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 1, 1, 1, 2, 1, 0xff})                                              // a line, no exclusions
	f.Add([]byte{4, 0, 1, 1, 1, 3, 1, 0, 2, 1, 2, 3, 1, 0xff, 0, 0, 1})                   // square, ⟨0,1⟩ excised
	f.Add([]byte{5, 0, 1, 1, 1, 2, 1, 2, 3, 1, 1, 4, 1, 4, 2, 1, 0xff, 1, 0, 1, 2})       // detour, ⟨0,1,2⟩ forbidden
	f.Add([]byte{6, 0, 1, 0, 1, 2, 0, 2, 0, 6, 3, 4, 2, 0xff, 2, 0, 1, 2, 0, 0, 6, 6, 3}) // zero costs, one-way link, island, out-of-range segment
	f.Fuzz(func(t *testing.T, data []byte) {
		g, excl := fuzzInput(data)
		for r := packet.NodeID(-1); int(r) <= g.NumNodes(); r++ {
			checkTable(t, g, r, excl, ComputeTable(g, r, excl))
		}
	})
}

// The daemon's LSDB → adjacency path must advertise exactly the graph the
// old graphFromLSDB built, including for LSAs no correct router would send:
// unordered and duplicate entries and neighbors that are not physically
// adjacent or do not exist. An origin outside the topology is refused at
// the door.
func TestLSDBAdjacencyMatchesReference(t *testing.T) {
	g := topology.ISP(topology.ISPSpec{Nodes: 96, PoPs: 4, Seed: 11})
	net := network.New(g, network.Options{Seed: 5})
	proto := Attach(net, consensus.NewService(net), Options{Timers: Timers{Delay: time.Second, Hold: 2 * time.Second}})
	if !proto.RunUntilConverged(5 * time.Minute) {
		t.Fatal("routing did not converge")
	}
	check := func(d *Daemon) {
		t.Helper()
		d.prepare(g.CSR())
		checkTable(t, d.graphFromLSDB(), d.id, d.excl, d.table)
	}
	for _, d := range proto.Daemons() {
		check(d)
	}

	d := proto.Daemon(7)
	nbrs := g.Neighbors(3)
	d.lsdb[3] = &LSA{Origin: 3, Seq: 99, Neighbors: []NeighborEntry{
		{ID: nbrs[len(nbrs)-1], Cost: 2},
		{ID: 95, Cost: 1}, // not adjacent to 3
		{ID: nbrs[0], Cost: 7},
		{ID: 400, Cost: 1}, {ID: -2, Cost: 1},
		{ID: nbrs[0], Cost: 1}, // duplicate: the later cost wins
	}}
	lsdb := slices.Clone(d.lsdb)
	d.acceptLSA(&LSA{Origin: 400, Seq: 1, Neighbors: []NeighborEntry{{ID: 0, Cost: 1}}}, -1)
	if !slices.Equal(d.lsdb, lsdb) {
		t.Fatal("an LSA of origin 400 changed a 96-router LSDB")
	}
	d.lsdb[5] = nil // a router never heard from advertises nothing
	d.excl.Add(topology.Segment{nbrs[0], 3, nbrs[len(nbrs)-1]})
	check(d)
}

// The node kernel's table is its two labels per destination: one
// allocation of 2n IDs beside the Table itself, with no row per arrival
// context and no context index. The edge kernel keeps a row per context.
func TestNodeTableAllocs(t *testing.T) {
	g := topology.ISP(topology.ISPSpec{Nodes: 96, PoPs: 4, Seed: 11})
	c, n := g.CSR(), g.NumNodes()
	links, trans := NewExclusions(), NewExclusions()
	links.Add(topology.Segment{5, g.Neighbors(5)[0]})
	trans.Add(topology.Segment{g.Neighbors(5)[0], 5, g.Neighbors(5)[1]})
	var s spfScratch
	for _, excl := range []*Exclusions{NewExclusions(), links} {
		s.computeTable(c, 5, excl) // size the scratch
		if a := testing.AllocsPerRun(10, func() { s.computeTable(c, 5, excl) }); a != 2 {
			t.Errorf("%d links excluded: %v allocations per node-kernel table, want 2 (the Table and its IDs)", excl.Len(), a)
		}
		if tbl := s.computeTable(c, 5, excl); len(tbl.hops) != 2*n || tbl.rows != nil || tbl.rowOf != nil {
			t.Errorf("%d links excluded: node-kernel table holds %d IDs, %d rows and a %d-entry row index; want %d IDs and neither",
				excl.Len(), len(tbl.hops), len(tbl.rows), len(tbl.rowOf), 2*n)
		}
	}
	if tbl := s.computeTable(c, 5, trans); tbl.hops != nil || len(tbl.rows) != 1+len(g.Neighbors(5)) {
		t.Errorf("edge-kernel table: %d IDs and %d rows, want none and %d", len(tbl.hops), len(tbl.rows), 1+len(g.Neighbors(5)))
	}
}

// The ISP-500 graph of the isp-converge workload: one table with no
// exclusions (node kernel) and one with forbidden transitions (edge
// kernel). A node-kernel table allocates its struct and its 2n IDs; an
// edge-kernel table its struct, its row headers, its row index and one
// block of cells — nothing per state either way.
func BenchmarkComputeTable(b *testing.B) {
	g := topology.ISP(topology.ISPSpec{Nodes: 500, PoPs: 20, Seed: 7})
	rng := rand.New(rand.NewSource(3))
	excl := NewExclusions()
	for i := 0; i < 6; i++ {
		excl.Add(randomSegment(rng, g, 3))
	}
	for _, bc := range []struct {
		name   string
		excl   *Exclusions
		allocs float64
	}{{"empty", NewExclusions(), 2}, {"excl", excl, 4}} {
		b.Run(bc.name, func(b *testing.B) {
			r := packet.NodeID(0)
			if allocs := testing.AllocsPerRun(5, func() { ComputeTable(g, r, bc.excl) }); allocs > bc.allocs {
				b.Fatalf("%v allocations per table, want at most %v", allocs, bc.allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ComputeTable(g, r, bc.excl)
				r = (r + 37) % packet.NodeID(g.NumNodes())
			}
		})
	}
}
