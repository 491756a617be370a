package topology

import (
	"testing"

	"routerwatch/internal/packet"
)

// diamond builds a—{b,c}—d with equal costs: a classic 2-way ECMP split.
func diamond() *Graph {
	g := NewGraph()
	a, b := g.AddNode("a"), g.AddNode("b")
	c, d := g.AddNode("c"), g.AddNode("d")
	attrs := DefaultLinkAttrs()
	g.AddDuplex(a, b, attrs)
	g.AddDuplex(a, c, attrs)
	g.AddDuplex(b, d, attrs)
	g.AddDuplex(c, d, attrs)
	return g
}

func TestECMPNextHops(t *testing.T) {
	g := diamond()
	e := NewECMP(g, 1, 2)
	hops := e.NextHops(0, 3) // a → d: both b and c
	if len(hops) != 2 || hops[0] != 1 || hops[1] != 2 {
		t.Fatalf("next hops %v, want [b c]", hops)
	}
	if hops := e.NextHops(1, 3); len(hops) != 1 || hops[0] != 3 {
		t.Fatalf("b → d next hops %v", hops)
	}
	if e.FlowNextHop(3, 3, 1) != -1 {
		t.Fatal("self destination should have no next hop")
	}
	// A forged packet's addresses reach FlowPath through the path oracle.
	for _, c := range [][2]packet.NodeID{{-1, 3}, {0, -1}, {4, 3}, {0, 4}} {
		if p := e.FlowPath(c[0], c[1], 1); p != nil {
			t.Errorf("FlowPath(%d, %d) = %v, want nil", c[0], c[1], p)
		}
	}
}

func TestECMPDeterministicPerFlow(t *testing.T) {
	g := diamond()
	e := NewECMP(g, 1, 2)
	for flow := packet.FlowID(0); flow < 50; flow++ {
		p1 := e.FlowPath(0, 3, flow)
		p2 := e.FlowPath(0, 3, flow)
		if p1.String() != p2.String() {
			t.Fatalf("flow %d path not deterministic", flow)
		}
		if len(p1) != 3 || p1[0] != 0 || p1[2] != 3 {
			t.Fatalf("flow %d path %v", flow, p1)
		}
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	g := diamond()
	e := NewECMP(g, 1, 2)
	viaB, viaC := 0, 0
	for flow := packet.FlowID(0); flow < 1000; flow++ {
		switch e.FlowPath(0, 3, flow)[1] {
		case 1:
			viaB++
		case 2:
			viaC++
		}
	}
	if viaB < 350 || viaC < 350 {
		t.Fatalf("flows not balanced: %d via b, %d via c", viaB, viaC)
	}
}

func TestECMPPathsAreShortest(t *testing.T) {
	g := Generate(GeneratorSpec{Name: "t", Nodes: 40, Links: 80, MaxDegree: 8, Seed: 2})
	e := NewECMP(g, 3, 4)
	for _, src := range g.Nodes()[:10] {
		_, dist := g.CSR().ShortestPathTree(src)
		for _, dst := range g.Nodes() {
			if src == dst {
				continue
			}
			for flow := packet.FlowID(0); flow < 3; flow++ {
				p := e.FlowPath(src, dst, flow)
				if p == nil {
					t.Fatalf("%v->%v flow %d unreachable", src, dst, flow)
				}
				// Path cost must equal the shortest distance.
				var cost int64
				for i := 0; i+1 < len(p); i++ {
					l, _ := g.Link(p[i], p[i+1])
					cost += int64(l.Cost)
				}
				if cost != dist[dst] {
					t.Fatalf("%v->%v flow %d: cost %d != shortest %d (path %v)",
						src, dst, flow, cost, dist[dst], p)
				}
			}
		}
	}
}

func TestECMPMultipathPrevalence(t *testing.T) {
	// §2.1.3 / Teixeira et al.: ISP topologies commonly have multiple
	// equal-cost paths between router pairs.
	g := Generate(SprintlinkSpec())
	e := NewECMP(g, 5, 6)
	pairs := g.NumNodes() * (g.NumNodes() - 1)
	mp := e.MultipathPairs()
	if mp == 0 {
		t.Fatal("no multipath pairs on an ISP-scale topology")
	}
	t.Logf("multipath pairs: %d of %d (%.1f%%)", mp, pairs, 100*float64(mp)/float64(pairs))
}
