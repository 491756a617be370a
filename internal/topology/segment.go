package topology

import (
	"encoding/binary"
	"slices"
	"sort"

	"routerwatch/internal/packet"
)

// Segment is a path-segment: a sequence of consecutive routers that is a
// subsequence of some routing path (§4.1). Segments are the unit of
// suspicion reported by failure detectors.
type Segment = Path

// SegmentKey is a compact comparable encoding of a segment, suitable for
// map keys and set membership.
type SegmentKey string

// AppendKey appends the segment's key encoding (4-byte big-endian node
// IDs) to b and returns the extended slice. Hot paths keep one scratch
// buffer and probe set membership with all[SegmentKey(kb)] — the compiler
// elides the string copy for map lookups, so a duplicate probe is free.
func AppendKey(b []byte, s Segment) []byte {
	for _, id := range s {
		b = binary.BigEndian.AppendUint32(b, uint32(id))
	}
	return b
}

// Key encodes the segment.
func Key(s Segment) SegmentKey {
	return SegmentKey(AppendKey(make([]byte, 0, 4*len(s)), s))
}

// DecodeKey recovers the segment from its key.
func DecodeKey(k SegmentKey) Segment {
	b := []byte(k)
	s := make(Segment, len(b)/4)
	for i := range s {
		s[i] = packet.NodeID(binary.BigEndian.Uint32(b[4*i:]))
	}
	return s
}

// MemberSegment decodes a flooded suspicion's payload: it must be a whole
// segment key, and the segment must contain the origin that signed it — a
// router may only announce segments it belongs to (§4.2.2).
func MemberSegment(payload []byte, origin packet.NodeID) (Segment, bool) {
	if len(payload)%4 != 0 {
		return nil, false
	}
	seg := DecodeKey(SegmentKey(payload))
	return seg, seg.Contains(origin)
}

// SegmentSet is a deduplicated collection of segments.
type SegmentSet map[SegmentKey]struct{}

// Add inserts a segment.
func (ss SegmentSet) Add(s Segment) { ss[Key(s)] = struct{}{} }

// Has reports membership.
func (ss SegmentSet) Has(s Segment) bool {
	_, ok := ss[Key(s)]
	return ok
}

// Slice returns the segments in a deterministic order.
func (ss SegmentSet) Slice() []Segment {
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

// MonitorMode selects which protocol's monitoring-set rule to apply.
type MonitorMode int

// Monitoring-set rules.
const (
	// ModeNodes is Protocol Π2's rule (§5.1): every router monitors every
	// (k+2)-path-segment it belongs to, plus every shorter whole path
	// (3 ≤ x < k+2 with terminal ends) it belongs to.
	ModeNodes MonitorMode = iota + 1
	// ModeEnds is Protocol Πk+2's rule (§5.2): every router monitors every
	// x-path-segment, 3 ≤ x ≤ k+2, of which it is an end.
	ModeEnds
)

// segArenaChunk sizes the bulk node-ID allocations backing deduplicated
// segments: unique segments are copied into shared arena chunks instead of
// one heap object per segment.
const segArenaChunk = 16 * 1024

// monitorArena accumulates the deduplicated segment universe. The sliding
// windows over the routing paths overlap enormously (every duplicate window
// previously cost a fresh segment copy plus two key allocations); the arena
// probes membership with a reusable key buffer — free for duplicates — and
// pays one key copy plus amortized arena space only for unique segments.
type monitorArena struct {
	all   SegmentSet
	segs  []Segment       // unique segments, later sorted into key order
	arena []packet.NodeID // chunked backing store for segs
	kb    []byte          // reusable key scratch
}

func (m *monitorArena) add(w []packet.NodeID) {
	m.kb = AppendKey(m.kb[:0], w)
	if _, dup := m.all[SegmentKey(m.kb)]; dup {
		return
	}
	if cap(m.arena)-len(m.arena) < len(w) {
		m.arena = make([]packet.NodeID, 0, segArenaChunk+len(w))
	}
	start := len(m.arena)
	m.arena = append(m.arena, w...)
	seg := Segment(m.arena[start:len(m.arena):len(m.arena)])
	m.all[SegmentKey(m.kb)] = struct{}{}
	m.segs = append(m.segs, seg)
}

// segLess orders segments identically to sort.Strings over their encoded
// keys: element-wise by unsigned node ID, with a proper prefix first.
func segLess(a, b Segment) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return uint32(a[i]) < uint32(b[i])
		}
	}
	return len(a) < len(b)
}

// forEachWindow enumerates the sliding windows the monitoring-set rule
// derives from the table's paths: for ModeNodes every (exactly)
// target-length window plus every shorter whole path of length ≥ 3, for
// ModeEnds every window of length 3..target. Windows are sub-slices of
// the paths — visit must not retain or mutate them — and a window may be
// visited more than once.
//
// Each path's pass visits the windows ending at p[j] for j from its last
// router down, and stops at the first j < len(p)-1 whose prefix p[:j+1] is
// itself a path of the table: every window ending at or before p[j] is a
// window of that prefix, of the same kind, so the prefix's own pass covers
// it. By induction on path length every window of every path is visited.
// On CSR.Paths's table each prefix is itself the table's path to its last
// router (TestPathTableTailsArePaths), so a path costs its windows ending
// at the destination plus one compare, not every window along it.
func forEachWindow(paths *PathTable, target int, mode MonitorMode, visit func(w []packet.NodeID)) {
	if mode != ModeNodes && mode != ModeEnds {
		panic("topology: unknown monitor mode")
	}
	isPath := func(prefix Path) bool {
		return slices.Equal(paths.Path(prefix[0], prefix[len(prefix)-1]), prefix)
	}
	shortest := 3
	if mode == ModeNodes {
		shortest = target
	}
	for i := 0; i < paths.Len(); i++ {
		p := paths.At(i)
		if len(p) < 3 {
			continue
		}
		if len(p) < shortest {
			visit(p) // ModeNodes: a whole path shorter than target
			continue
		}
		for j := len(p) - 1; j+1 >= shortest; j-- {
			if j < len(p)-1 && isPath(p[:j+1]) {
				break
			}
			for x := shortest; x <= target && x <= j+1; x++ {
				visit(p[j+1-x : j+1])
			}
		}
	}
}

// MonitorSets computes Pr — the set of path-segments each router monitors —
// for the table's routing paths, adjacent-fault bound k, and protocol rule.
// It returns the per-router monitoring sets and the global deduplicated
// segment universe. The returned segments share arena-backed storage;
// callers must not mutate them.
func MonitorSets(paths *PathTable, k int, mode MonitorMode) (pr map[packet.NodeID][]Segment, all SegmentSet) {
	if k < 1 {
		k = 1
	}
	m := monitorArena{all: make(SegmentSet)}
	forEachWindow(paths, k+2, mode, m.add)

	// Sort into encoded-key order: the same deterministic order the
	// previous SegmentSet.Slice pass produced, without re-decoding keys.
	sort.Slice(m.segs, func(i, j int) bool { return segLess(m.segs[i], m.segs[j]) })

	pr = make(map[packet.NodeID][]Segment)
	for _, seg := range m.segs {
		switch mode {
		case ModeNodes:
			for _, r := range seg {
				pr[r] = append(pr[r], seg)
			}
		case ModeEnds:
			pr[seg[0]] = append(pr[seg[0]], seg)
			last := seg[len(seg)-1]
			if last != seg[0] {
				pr[last] = append(pr[last], seg)
			}
		}
	}
	return pr, m.all
}

// MonitorSetSizes computes |Pr| per router — len(pr[r]) for the pr that
// MonitorSets would return, indexed by router ID over [0, n) — without
// materializing the sets. The figure-5 k-sweeps need only these sizes;
// skipping the arena copies, the per-router segment slices and the
// deterministic sort leaves one dedup-map probe per window, which is most
// of the difference between the sweep and the raw window enumeration.
// Routers with IDs ≥ n are ignored.
func MonitorSetSizes(paths *PathTable, k int, mode MonitorMode, n int) []int {
	if k < 1 {
		k = 1
	}
	sizes := make([]int, n)
	seen := make(SegmentSet)
	var kb []byte
	forEachWindow(paths, k+2, mode, func(w []packet.NodeID) {
		kb = AppendKey(kb[:0], w)
		if _, dup := seen[SegmentKey(kb)]; dup {
			return
		}
		seen[SegmentKey(kb)] = struct{}{}
		switch mode {
		case ModeNodes:
			for _, r := range w {
				if int(r) < n {
					sizes[r]++
				}
			}
		case ModeEnds:
			first, last := w[0], w[len(w)-1]
			if int(first) < n {
				sizes[first]++
			}
			if last != first && int(last) < n {
				sizes[last]++
			}
		}
	})
	return sizes
}

// PrStats summarizes the distribution of |Pr| across routers, the quantity
// plotted in Figures 5.2 and 5.4.
type PrStats struct {
	K       int
	Max     int
	Mean    float64
	Median  float64
	Routers int
}

// ComputePrStats computes |Pr| statistics over all routers in the graph
// (routers monitoring zero segments count as zero).
func ComputePrStats(g *Graph, paths *PathTable, k int, mode MonitorMode) PrStats {
	sizes := MonitorSetSizes(paths, k, mode, g.NumNodes())
	sort.Ints(sizes)
	st := PrStats{K: k, Routers: g.NumNodes()}
	total := 0
	for _, s := range sizes {
		total += s
		if s > st.Max {
			st.Max = s
		}
	}
	if len(sizes) > 0 {
		st.Mean = float64(total) / float64(len(sizes))
		mid := len(sizes) / 2
		if len(sizes)%2 == 1 {
			st.Median = float64(sizes[mid])
		} else {
			st.Median = float64(sizes[mid-1]+sizes[mid]) / 2
		}
	}
	return st
}

// SubsegmentOf reports whether needle appears as a contiguous subsequence
// of hay.
func SubsegmentOf(needle, hay Segment) bool {
	if len(needle) == 0 || len(needle) > len(hay) {
		return false
	}
outer:
	for i := 0; i+len(needle) <= len(hay); i++ {
		for j := range needle {
			if hay[i+j] != needle[j] {
				continue outer
			}
		}
		return true
	}
	return false
}
