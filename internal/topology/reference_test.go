package topology

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"routerwatch/internal/packet"
)

// refForEachWindow is forEachWindow as it stood before the prefix rule, kept
// verbatim as the oracle TestMonitorSetsMatchReference and FuzzMonitorSets
// hold the one-pass enumeration to: every window of every path, visited in
// full.
func refForEachWindow(paths []Path, target int, mode MonitorMode, visit func(w []packet.NodeID)) {
	switch mode {
	case ModeNodes:
		for _, p := range paths {
			if len(p) < 3 {
				continue
			}
			if len(p) < target {
				visit(p)
				continue
			}
			for i := 0; i+target <= len(p); i++ {
				visit(p[i : i+target])
			}
		}
	case ModeEnds:
		for _, p := range paths {
			for x := 3; x <= target; x++ {
				if len(p) < x {
					break
				}
				for i := 0; i+x <= len(p); i++ {
					visit(p[i : i+x])
				}
			}
		}
	default:
		panic("topology: unknown monitor mode")
	}
}

// segmentSet is a deduplicated collection of segments, by key.
type segmentSet map[SegmentKey]struct{}

// sorted returns the segments in key order.
func (ss segmentSet) sorted() []Segment {
	keys := make([]string, 0, len(ss))
	for k := range ss {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	out := make([]Segment, len(keys))
	for i, k := range keys {
		out[i] = DecodeKey(SegmentKey(k))
	}
	return out
}

// refMonitorSets is the monitoring-set rule read straight off the reference
// enumeration: the distinct windows in key order, each filed under the
// routers the mode assigns it to.
func refMonitorSets(paths []Path, k int, mode MonitorMode) (map[packet.NodeID][]Segment, segmentSet) {
	if k < 1 {
		k = 1
	}
	all := make(segmentSet)
	refForEachWindow(paths, k+2, mode, func(w []packet.NodeID) { all[Key(w)] = struct{}{} })
	pr := make(map[packet.NodeID][]Segment)
	for _, seg := range all.sorted() {
		owners := []packet.NodeID(seg)
		if mode == ModeEnds {
			owners = []packet.NodeID{seg[0]}
			if last := seg[len(seg)-1]; last != seg[0] {
				owners = append(owners, last)
			}
		}
		for _, r := range owners {
			pr[r] = append(pr[r], seg)
		}
	}
	return pr, all
}

// tableSets reads a SegmentTable back as the reference's shapes — each
// router's monitored segments, and the set of them all — and checks its own
// invariants on the way: IDs in key order, ID finding every segment, each
// router's IDs ascending.
func tableSets(t *testing.T, name string, st *SegmentTable, routers int) (map[packet.NodeID][]Segment, segmentSet) {
	t.Helper()
	all := make(segmentSet)
	for id := 0; id < st.Len(); id++ {
		seg := st.Segment(SegmentID(id))
		all[Key(seg)] = struct{}{}
		if got, ok := st.ID(seg); !ok || got != SegmentID(id) {
			t.Fatalf("%s: ID(%v) = %d, %v, want %d", name, seg, got, ok, id)
		}
		if id > 0 && CompareSegments(st.Segment(SegmentID(id-1)), seg) >= 0 {
			t.Fatalf("%s: segments %d and %d are out of key order", name, id-1, id)
		}
	}
	pr := make(map[packet.NodeID][]Segment)
	for r := packet.NodeID(-1); int(r) <= routers; r++ {
		ids := st.Monitored(r)
		if !slices.IsSorted(ids) {
			t.Fatalf("%s: Pr(%d) = %v is not ascending", name, r, ids)
		}
		for _, id := range ids {
			pr[r] = append(pr[r], st.Segment(id))
		}
	}
	return pr, all
}

// requireMatchesReference checks MonitorSets and MonitorSetSizes on paths
// against the reference, for k = 1…4 under both rules; sizes are taken over
// router IDs [0, n).
func requireMatchesReference(t *testing.T, name string, paths []Path, n int) {
	t.Helper()
	table := NewPathTable(paths)
	for _, mode := range []MonitorMode{ModeNodes, ModeEnds} {
		for k := 1; k <= 4; k++ {
			cell := fmt.Sprintf("%s, mode %d, k=%d", name, mode, k)
			pr, all := tableSets(t, cell, MonitorSets(&table, k, mode), n)
			wantPr, wantAll := refMonitorSets(paths, k, mode)
			if !reflect.DeepEqual(all, wantAll) {
				t.Fatalf("%s: universe has %d segments, the reference %d", cell, len(all), len(wantAll))
			}
			if !reflect.DeepEqual(pr, wantPr) {
				t.Fatalf("%s: monitoring sets differ from the reference", cell)
			}
			sizes := MonitorSetSizes(&table, k, mode, n)
			for r := range sizes {
				if want := len(wantPr[packet.NodeID(r)]); sizes[r] != want {
					t.Fatalf("%s: |Pr(%d)| = %d, the reference %d", cell, r, sizes[r], want)
				}
			}
		}
	}
}

// TestMonitorSetsMatchReference holds the prefix-stopping enumeration to the
// all-windows reference on random ISP graphs, over the path lists the
// protocols derive monitoring sets from and three that break the all-pairs
// shape: a shuffled subset (prefixes often missing), two paths per pair
// (the graph's and those of the graph without one of its links), and pairs
// given twice.
func TestMonitorSetsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := ISP(ISPSpec{Nodes: 16 + rng.Intn(24), PoPs: 2 + rng.Intn(3), Seed: seed})
		n := g.NumNodes()
		all := tablePaths(g.CSR().Paths())

		subset := append([]Path(nil), all...)
		rng.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
		subset = subset[:len(subset)/3]

		cut := g.Clone()
		if p := all[rng.Intn(len(all))]; len(p) > 1 {
			cut.RemoveLink(p[0], p[1])
			cut.RemoveLink(p[1], p[0])
		}
		rerouted := append(append([]Path(nil), all...), tablePaths(cut.CSR().Paths())...)

		twice := append([]Path(nil), all...)
		for i := 0; i < 5; i++ {
			p := all[rng.Intn(len(all))]
			twice = append(twice, append(Path(nil), p...))
			twice = append([]Path{p}, twice...)
		}

		for _, in := range []struct {
			name  string
			paths []Path
		}{{"all pairs", all}, {"shuffled third", subset}, {"rerouted pairs", rerouted}, {"duplicated pairs", twice}} {
			requireMatchesReference(t, fmt.Sprintf("seed %d, %s", seed, in.name), in.paths, n)
		}
	}
}

// tablePaths lists the table's paths in its order.
func tablePaths(t *PathTable) []Path {
	paths := make([]Path, t.Len())
	for i := range paths {
		paths[i] = t.At(i)
	}
	return paths
}

// decodePaths reads a path list from fuzz input: each path is a length byte
// (0–7) followed by that many router IDs in [0, 16), so routers repeat,
// paths of 0–2 routers are common, and prefixes and duplicates arise by
// chance.
func decodePaths(b []byte) []Path {
	var paths []Path
	for len(b) > 0 {
		l := int(b[0] % 8)
		b = b[1:]
		p := Path{}
		for ; l > 0 && len(b) > 0; l-- {
			p = append(p, packet.NodeID(b[0]%16))
			b = b[1:]
		}
		paths = append(paths, p)
	}
	return paths
}

// FuzzMonitorSets holds MonitorSets and MonitorSetSizes to the reference on
// arbitrary path lists.
func FuzzMonitorSets(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 4, 0, 1, 2, 3, 2, 0, 1, 5, 0, 1, 2, 3, 4})
	f.Add([]byte{4, 1, 2, 1, 2, 3, 1, 2, 1, 0, 1, 7, 3, 1, 2, 1})
	f.Add([]byte{6, 0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 3, 0, 1, 2, 4, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		requireMatchesReference(t, fmt.Sprintf("%v", b), decodePaths(b), 16)
	})
}
