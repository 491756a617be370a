package topology

import (
	"fmt"
	"math/rand"
	"reflect"
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

// refMonitorSets is the monitoring-set rule read straight off the reference
// enumeration: the distinct windows in key order, each filed under the
// routers the mode assigns it to.
func refMonitorSets(paths []Path, k int, mode MonitorMode) (map[packet.NodeID][]Segment, SegmentSet) {
	if k < 1 {
		k = 1
	}
	all := make(SegmentSet)
	refForEachWindow(paths, k+2, mode, func(w []packet.NodeID) { all.Add(w) })
	pr := make(map[packet.NodeID][]Segment)
	for _, seg := range all.Slice() {
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

// requireMatchesReference checks MonitorSets and MonitorSetSizes on paths
// against the reference, for k = 1…4 under both rules; sizes are taken over
// router IDs [0, n).
func requireMatchesReference(t *testing.T, name string, paths []Path, n int) {
	t.Helper()
	table := NewPathTable(paths)
	for _, mode := range []MonitorMode{ModeNodes, ModeEnds} {
		for k := 1; k <= 4; k++ {
			pr, all := MonitorSets(&table, k, mode)
			wantPr, wantAll := refMonitorSets(paths, k, mode)
			if !reflect.DeepEqual(all, wantAll) {
				t.Fatalf("%s, mode %d, k=%d: universe has %d segments, the reference %d", name, mode, k, len(all), len(wantAll))
			}
			if !reflect.DeepEqual(pr, wantPr) {
				t.Fatalf("%s, mode %d, k=%d: monitoring sets differ from the reference", name, mode, k)
			}
			sizes := MonitorSetSizes(&table, k, mode, n)
			for r := range sizes {
				if want := len(wantPr[packet.NodeID(r)]); sizes[r] != want {
					t.Fatalf("%s, mode %d, k=%d: |Pr(%d)| = %d, the reference %d", name, mode, k, r, sizes[r], want)
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
