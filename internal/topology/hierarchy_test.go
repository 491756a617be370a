package topology

import (
	"reflect"
	"testing"
)

func TestISPGeneratorShape(t *testing.T) {
	spec := ISPSpec{Nodes: 200, PoPs: 8, Seed: 7}
	g := ISP(spec)
	if got := g.NumNodes(); got != 200 {
		t.Fatalf("NumNodes = %d, want exactly 200", got)
	}
	if !g.Connected() {
		t.Fatal("generated topology is not connected")
	}
	if got := g.NumRegions(); got != 8 {
		t.Fatalf("NumRegions = %d, want 8", got)
	}
	// Regions are contiguous ID ranges of near-equal size.
	counts := make([]int, g.NumRegions())
	for _, id := range g.Nodes() {
		counts[g.Region(id)]++
	}
	for p, c := range counts {
		if c < 200/8-1 || c > 200/8+1 {
			t.Fatalf("PoP %d has %d routers, want ~%d", p, c, 200/8)
		}
	}
	// The backbone makes regions mutually reachable: there must be at
	// least a ring's worth of cross-region links.
	if cr := CrossRegionLinks(g); cr < 8 {
		t.Fatalf("cross-region links = %d, want >= 8 (ring)", cr)
	}
	// Every edge router multi-homes: minimum degree >= 2 with default
	// EdgeUplinks.
	hist := DegreeHistogram(g)
	for d := 0; d < 2 && d < len(hist); d++ {
		if hist[d] != 0 {
			t.Fatalf("%d routers have degree %d; all should multi-home", hist[d], d)
		}
	}
	if d := Diameter(g); d <= 0 || d > 12 {
		t.Fatalf("diameter = %d, want small positive (hierarchical)", d)
	}
}

func TestISPGeneratorDeterministic(t *testing.T) {
	spec := ISPSpec{Nodes: 150, PoPs: 5, Seed: 3}
	a, b := ISP(spec), ISP(spec)
	if a.NumNodes() != b.NumNodes() {
		t.Fatalf("node counts differ: %d vs %d", a.NumNodes(), b.NumNodes())
	}
	if !reflect.DeepEqual(a.Links(), b.Links()) {
		t.Fatal("same spec generated different link sets")
	}
	if !reflect.DeepEqual(a.Regions(), b.Regions()) {
		t.Fatal("same spec generated different region maps")
	}
	// A different seed rewires something.
	c := ISP(ISPSpec{Nodes: 150, PoPs: 5, Seed: 4})
	if reflect.DeepEqual(a.Links(), c.Links()) {
		t.Fatal("different seeds generated identical link sets")
	}
}

func TestISPGeneratorDefaults(t *testing.T) {
	g := ISP(ISPSpec{Nodes: 1000, Seed: 1})
	if g.NumNodes() != 1000 {
		t.Fatalf("NumNodes = %d, want 1000", g.NumNodes())
	}
	if !g.Connected() {
		t.Fatal("default 1000-router topology is not connected")
	}
	if g.NumRegions() < 2 {
		t.Fatalf("NumRegions = %d, want >= 2", g.NumRegions())
	}
}

func TestRegionMetadataOnGraph(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if g.Regions() != nil {
		t.Fatal("untagged graph should report nil Regions")
	}
	if g.NumRegions() != 1 || g.Region(a) != 0 {
		t.Fatal("untagged graph should default to one region")
	}
	g.SetRegion(b, 3)
	if g.Region(b) != 3 || g.NumRegions() != 4 {
		t.Fatalf("Region(b)=%d NumRegions=%d, want 3/4", g.Region(b), g.NumRegions())
	}
	g.AddDuplex(a, b, DefaultLinkAttrs())
	c := g.Clone()
	if c.Region(b) != 3 {
		t.Fatal("Clone dropped region metadata")
	}
}
