package topology

import (
	"slices"
	"testing"
	"testing/quick"

	"routerwatch/internal/packet"
)

func TestAbileneShape(t *testing.T) {
	g := Abilene()
	if got := g.NumNodes(); got != 11 {
		t.Fatalf("Abilene has %d nodes, want 11", got)
	}
	if got := g.NumDuplexLinks(); got != 14 {
		t.Fatalf("Abilene has %d duplex links, want 14", got)
	}
	if !g.Connected() {
		t.Fatal("Abilene not connected")
	}
}

func TestAbilenePrimaryPath(t *testing.T) {
	g := Abilene()
	sunny, _ := g.Lookup("Sunnyvale")
	ny, _ := g.Lookup("NewYork")
	_, dist := g.CSR().ShortestPathTree(sunny)
	p := g.CSR().Paths().Path(sunny, ny)
	want := []string{"Sunnyvale", "Denver", "KansasCity", "Indianapolis", "Chicago", "NewYork"}
	if len(p) != len(want) {
		t.Fatalf("path %v, want %v", p, want)
	}
	for i, name := range want {
		if g.Name(p[i]) != name {
			t.Fatalf("path[%d] = %s, want %s (full path %v)", i, g.Name(p[i]), name, p)
		}
	}
	if dist[ny] != 25 {
		t.Fatalf("Sunnyvale→NewYork cost %d, want 25 (ms)", dist[ny])
	}
}

func TestAbileneAlternatePathAfterExclusion(t *testing.T) {
	g := Abilene().Clone()
	kc, _ := g.Lookup("KansasCity")
	// Remove Kansas City entirely (stronger than segment exclusion).
	for _, nb := range g.Neighbors(kc) {
		g.RemoveLink(kc, nb)
		g.RemoveLink(nb, kc)
	}
	sunny, _ := g.Lookup("Sunnyvale")
	ny, _ := g.Lookup("NewYork")
	_, dist := g.CSR().ShortestPathTree(sunny)
	p := g.CSR().Paths().Path(sunny, ny)
	want := []string{"Sunnyvale", "LosAngeles", "Houston", "Atlanta", "Washington", "NewYork"}
	if len(p) != len(want) {
		t.Fatalf("alternate path %v, want %v", p, want)
	}
	for i, name := range want {
		if g.Name(p[i]) != name {
			t.Fatalf("alternate path[%d] = %s, want %s", i, g.Name(p[i]), name)
		}
	}
	if dist[ny] != 28 {
		t.Fatalf("alternate cost %d, want 28 (ms)", dist[ny])
	}
}

func TestSimpleChi(t *testing.T) {
	st := SimpleChi(3, 2)
	g := st.Graph
	if g.NumNodes() != 7 {
		t.Fatalf("SimpleChi(3,2) has %d nodes, want 7", g.NumNodes())
	}
	if !g.Connected() {
		t.Fatal("SimpleChi not connected")
	}
	l, ok := g.Link(st.R, st.RD)
	if !ok {
		t.Fatal("missing bottleneck link")
	}
	if l.Bandwidth != 10e6 || l.QueueLimit != 50_000 {
		t.Fatalf("bottleneck attrs = %+v", l)
	}
	// Every source routes to every sink through r then rd.
	for _, s := range st.Sources {
		for _, sink := range st.Sinks {
			p := g.CSR().Paths().Path(s, sink)
			if len(p) != 4 || p[1] != st.R || p[2] != st.RD {
				t.Fatalf("source %v to sink %v path %v, want s->r->rd->t", s, sink, p)
			}
		}
	}
}

func TestLine(t *testing.T) {
	g := Line(5)
	if g.NumNodes() != 5 || g.NumDuplexLinks() != 4 {
		t.Fatalf("Line(5): %d nodes, %d links", g.NumNodes(), g.NumDuplexLinks())
	}
	p := g.CSR().Paths().Path(0, 4)
	if len(p) != 5 {
		t.Fatalf("line path %v", p)
	}
	for i, v := range p {
		if int(v) != i {
			t.Fatalf("line path %v not monotone", p)
		}
	}
}

func TestGenerateMatchesSpec(t *testing.T) {
	for _, spec := range []GeneratorSpec{SprintlinkSpec(), EBONESpec()} {
		g := Generate(spec)
		if g.NumNodes() != spec.Nodes {
			t.Errorf("%s: %d nodes, want %d", spec.Name, g.NumNodes(), spec.Nodes)
		}
		if g.NumDuplexLinks() != spec.Links {
			t.Errorf("%s: %d links, want %d", spec.Name, g.NumDuplexLinks(), spec.Links)
		}
		if !g.Connected() {
			t.Errorf("%s: not connected", spec.Name)
		}
		maxDeg := 0
		for _, id := range g.Nodes() {
			if d := g.Degree(id); d > maxDeg {
				maxDeg = d
			}
		}
		if maxDeg > spec.MaxDegree {
			t.Errorf("%s: max degree %d exceeds cap %d", spec.Name, maxDeg, spec.MaxDegree)
		}
		meanDeg := float64(g.NumDirectedLinks()) / float64(g.NumNodes())
		wantMean := 2 * float64(spec.Links) / float64(spec.Nodes)
		if meanDeg < wantMean-0.01 || meanDeg > wantMean+0.01 {
			t.Errorf("%s: mean degree %.2f, want %.2f", spec.Name, meanDeg, wantMean)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := EBONESpec()
	a, b := Generate(spec), Generate(spec)
	la, lb := a.Links(), b.Links()
	if len(la) != len(lb) {
		t.Fatal("same-seed generations differ in size")
	}
	for i := range la {
		if la[i].From != lb[i].From || la[i].To != lb[i].To {
			t.Fatal("same-seed generations differ in structure")
		}
	}
}

func TestPathBetweenUnreachable(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if p := g.CSR().Paths().Path(a, b); p != nil {
		t.Fatalf("unreachable node produced path %v", p)
	}
	if nh := g.CSR().Paths().NextHop(a, b); nh != -1 {
		t.Fatalf("unreachable node has next hop %v", nh)
	}
}

func TestSegmentKeyRoundTrip(t *testing.T) {
	f := func(ids []int16) bool {
		seg := make(Segment, len(ids))
		for i, v := range ids {
			seg[i] = packet.NodeID(v)
		}
		got := DecodeKey(Key(seg))
		if len(got) != len(seg) {
			return false
		}
		for i := range seg {
			if got[i] != seg[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMonitorSetsLineNodes(t *testing.T) {
	// Line of 6 routers, k=1: Π2 monitors every 3-segment of every path.
	g := Line(6)
	paths := g.CSR().Paths()
	st := MonitorSets(paths, 1, ModeNodes)
	// Line of 6 has 3-segments: (0,1,2),(1,2,3),(2,3,4),(3,4,5) in both
	// directions = 8 segments.
	if st.Len() != 8 {
		t.Fatalf("universe has %d segments, want 8", st.Len())
	}
	// Router 0 belongs only to (0,1,2) and (2,1,0).
	if got := len(st.Monitored(0)); got != 2 {
		t.Fatalf("|Pr(0)| = %d, want 2: %v", got, st.Monitored(0))
	}
	// Router 2 belongs to 3-segments starting at 0,1,2 in each direction.
	if got := len(st.Monitored(2)); got != 6 {
		t.Fatalf("|Pr(2)| = %d, want 6: %v", got, st.Monitored(2))
	}
}

func TestMonitorSetsLineEnds(t *testing.T) {
	// Line of 6, k=1: Πk+2 monitors x-segments for x=3 with r as an end.
	g := Line(6)
	paths := g.CSR().Paths()
	st := MonitorSets(paths, 1, ModeEnds)
	if st.Len() != 8 {
		t.Fatalf("universe has %d segments, want 8", st.Len())
	}
	// Router 0 is an end of (0,1,2) and (2,1,0).
	if got := len(st.Monitored(0)); got != 2 {
		t.Fatalf("|Pr(0)| = %d, want 2: %v", got, st.Monitored(0))
	}
	// Router 2: end of (2,3,4),(4,3,2),(2,1,0),(0,1,2).
	if got := len(st.Monitored(2)); got != 4 {
		t.Fatalf("|Pr(2)| = %d, want 4: %v", got, st.Monitored(2))
	}
}

func TestMonitorSetsShortPathsIncluded(t *testing.T) {
	// Line of 3 with k=3 (target length 5): whole 3-hop paths are still
	// monitored under ModeNodes because no 5-segment exists.
	g := Line(3)
	paths := g.CSR().Paths()
	st := MonitorSets(paths, 3, ModeNodes)
	if st.Len() != 2 { // (0,1,2) and (2,1,0)
		t.Fatalf("universe has %d segments, want the two whole paths", st.Len())
	}
}

// TestSegmentIndexCollisions: segments that share an index hash are told
// apart by their router IDs — a duplicate is still dropped, a lookup still
// answers the segment it names, and a window absent from the table is not
// mistaken for one present under its hash.
func TestSegmentIndexCollisions(t *testing.T) {
	const h = 42
	a, b, c := Segment{0, 1, 2}, Segment{2, 1, 0}, Segment{1, 2, 3}
	m := monitorArena{index: make(map[uint64]int32)}
	for _, seg := range []Segment{b, a, b, a} {
		m.insert(h, seg)
	}
	m.insert(h+1, c)
	st := m.table(ModeEnds)
	if st.Len() != 3 {
		t.Fatalf("table holds %d segments, want 3", st.Len())
	}
	for _, q := range []struct {
		h   uint64
		seg Segment
		id  SegmentID // key order: a, c, b
	}{{h, a, 0}, {h, b, 2}, {h + 1, c, 1}} {
		if got, ok := st.find(q.h, q.seg); !ok || got != q.id || !slices.Equal(st.Segment(got), q.seg) {
			t.Fatalf("find(%v) = %d, %v, want %d", q.seg, got, ok, q.id)
		}
	}
	for _, absent := range []Segment{c, {0, 1, 3}} {
		if id, ok := st.find(h, absent); ok {
			t.Fatalf("%v, absent under hash %d, found as %d", absent, h, id)
		}
	}
	if got := st.Monitored(2); !slices.Equal(got, []SegmentID{0, 2}) {
		t.Fatalf("Monitored(2) = %v, want [0 2]", got)
	}
}

func TestMonitorSetSizesMatchMonitorSets(t *testing.T) {
	// MonitorSetSizes is the allocation-light fast path behind
	// ComputePrStats; it must agree exactly with len(pr[r]) from the full
	// MonitorSets construction, for both rules across k.
	g := Generate(GeneratorSpec{Name: "t", Nodes: 40, Links: 70, MaxDegree: 8, Seed: 7})
	paths := g.CSR().Paths()
	for _, mode := range []MonitorMode{ModeNodes, ModeEnds} {
		for k := 1; k <= 6; k++ {
			st := MonitorSets(paths, k, mode)
			sizes := MonitorSetSizes(paths, k, mode, g.NumNodes())
			for r := 0; r < g.NumNodes(); r++ {
				if want := len(st.Monitored(packet.NodeID(r))); sizes[r] != want {
					t.Fatalf("mode %d k=%d router %d: size %d, want %d", mode, k, r, sizes[r], want)
				}
			}
		}
	}
}

func TestEndsMonitorsFewerThanNodes(t *testing.T) {
	// On a realistic topology, Πk+2's per-router monitoring load must be
	// much smaller than Π2's (the Fig 5.2 vs Fig 5.4 claim).
	g := Generate(GeneratorSpec{Name: "t", Nodes: 60, Links: 110, MaxDegree: 10, Seed: 1})
	paths := g.CSR().Paths()
	for _, k := range []int{1, 2, 3} {
		nodes := ComputePrStats(g, paths, k, ModeNodes)
		ends := ComputePrStats(g, paths, k, ModeEnds)
		if ends.Mean >= nodes.Mean {
			t.Errorf("k=%d: ends mean %.1f >= nodes mean %.1f", k, ends.Mean, nodes.Mean)
		}
	}
}

func TestPrGrowsWithK(t *testing.T) {
	g := Generate(GeneratorSpec{Name: "t", Nodes: 60, Links: 110, MaxDegree: 10, Seed: 1})
	paths := g.CSR().Paths()
	prevNodes, prevEnds := -1.0, -1.0
	for k := 1; k <= 4; k++ {
		n := ComputePrStats(g, paths, k, ModeNodes)
		e := ComputePrStats(g, paths, k, ModeEnds)
		if n.Mean < prevNodes {
			// Π2's segment count can dip slightly at high k when windows
			// outgrow typical path lengths; it must not collapse.
			if n.Mean < prevNodes/2 {
				t.Errorf("nodes mean collapsed at k=%d: %.1f after %.1f", k, n.Mean, prevNodes)
			}
		}
		if e.Mean < prevEnds {
			t.Errorf("ends mean decreased at k=%d: %.1f after %.1f", k, e.Mean, prevEnds)
		}
		prevNodes, prevEnds = n.Mean, e.Mean
	}
}

func TestTransmissionTime(t *testing.T) {
	l := Link{Bandwidth: 8e6} // 8 Mbit/s = 1 byte/µs
	if got := l.TransmissionTime(1000); got.Microseconds() != 1000 {
		t.Fatalf("TransmissionTime(1000B @8Mbps) = %v, want 1ms", got)
	}
	zero := Link{}
	if zero.TransmissionTime(1000) != 0 {
		t.Fatal("zero-bandwidth link should have zero transmission time")
	}
}

func TestAddLinkPanics(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("a")
	for name, fn := range map[string]func(){
		"self-loop":    func() { g.AddLink(Link{From: a, To: a}) },
		"unknown node": func() { g.AddLink(Link{From: a, To: 99}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// §4.1, "a router can predict the path that a packet will take in the
// stable state", holds for the path table only if each router on a path
// forwards the packet along the rest of it: the tail of every path from
// router r on must be r's own path to the same destination. Static
// forwarding at r reads r's own path (PathTable.NextHop), so this is what
// makes it follow every prediction hop for hop. Every prefix must be a path
// of the table too: MonitorSets stops a path's pass at its first prefix
// that is an input path, and costs a window per hop without it.
func TestPathTableTailsArePaths(t *testing.T) {
	for _, tc := range []struct {
		name  string
		graph func() *Graph
	}{
		{"abilene", Abilene},
		{"line5", func() *Graph { return Line(5) }},
		{"simplechi-12-2", func() *Graph { return SimpleChi(12, 2).Graph }},
		{"isp-100-4-7", func() *Graph { return ISP(ISPSpec{Nodes: 100, PoPs: 4, Seed: 7}) }},
		{"isp-500-20-7", func() *Graph { return ISP(ISPSpec{Nodes: 500, PoPs: 20, Seed: 7}) }},
		{"sprintlink", func() *Graph { return Generate(SprintlinkSpec()) }},
		{"ebone", func() *Graph { return Generate(EBONESpec()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.graph()
			table := g.CSR().Paths()
			if n := g.NumNodes(); table.Len() != n*(n-1) {
				t.Fatalf("%d paths over %d connected routers, want %d", table.Len(), n, n*(n-1))
			}
			tails := 0
			for _, p := range tablePaths(table) {
				src, dst := p[0], p[len(p)-1]
				for i := 1; i+1 < len(p); i++ {
					if own := table.Path(p[i], dst); !slices.Equal(own, p[i:]) {
						t.Fatalf("path %v: the tail from %v is not its own path %v", p, p[i], own)
					}
					if own := table.Path(src, p[i]); !slices.Equal(own, p[:i+1]) {
						t.Fatalf("path %v: the prefix to %v is not the path %v", p, p[i], own)
					}
					tails++
				}
			}
			t.Logf("%d tails and as many prefixes, each a path of the table", tails)
		})
	}
}

// CSR.Paths runs its n Dijkstras over one scratch and allocates each
// structure once, whatever n: the index with the next-hop column beside
// it, the offsets, the arena, the hop counts, the scratch's three buffers
// and its heap, presized — nothing per destination or per path. Offsets
// and arena are exact-size, and the arena is every path back to back.
func TestAllPairsPathsAllocs(t *testing.T) {
	for _, n := range []int{20, 100, 300} {
		c := ISP(ISPSpec{Nodes: n, Seed: 1}).CSR()
		if got := testing.AllocsPerRun(3, func() { c.buildPaths() }); got != 8 {
			t.Errorf("ISP(%d): %v allocations, want 8", n, got)
		}
		table := c.buildPaths()
		nodes := 0
		for i := 0; i < table.Len(); i++ {
			nodes += len(table.At(i))
		}
		if len(table.nodes) != nodes || cap(table.nodes) != nodes || cap(table.off) != table.Len()+1 {
			t.Errorf("ISP(%d): arena %d/%d IDs and %d offsets for %d paths of %d IDs in all",
				n, len(table.nodes), cap(table.nodes), cap(table.off), table.Len(), nodes)
		}
	}
}
