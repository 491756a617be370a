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

// MemberKey reports whether payload is a whole segment key whose segment
// contains r — a router may only announce segments it belongs to (§4.2.2).
// It reads the encoding without decoding it, so a refused announcement
// costs no allocation.
func MemberKey(payload []byte, r packet.NodeID) bool {
	if len(payload)%4 != 0 {
		return false
	}
	for i := 0; i < len(payload); i += 4 {
		if packet.NodeID(binary.BigEndian.Uint32(payload[i:])) == r {
			return true
		}
	}
	return false
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

// SegmentID numbers a segment of a SegmentTable: IDs are dense, from 0, in
// the segments' key order.
type SegmentID int32

// SegmentTable is what a monitoring-set rule derives from a path table
// (MonitorSets): every distinct monitored segment once, numbered by
// SegmentID, the index that finds a window's ID, and each router's
// monitoring set Pr as an ascending run of IDs in one shared array. It is
// read-only once built, and its segments share arena chunks: callers must
// not mutate them.
type SegmentTable struct {
	segs []Segment // by ID
	// index finds a segment by hashSegment: it holds the last segment met
	// with that hash, numbered in the order the windows were first met;
	// chain links each to the one met before it with the same hash (−1:
	// none), and rank turns that number into an ID.
	index map[uint64]int32
	chain []int32
	rank  []SegmentID
	// ids holds every router's Pr back to back: router r's is
	// ids[off[r]:off[r+1]].
	ids []SegmentID
	off []int32
}

// Len returns the number of segments.
func (t *SegmentTable) Len() int { return len(t.segs) }

// Segment returns the segment numbered id.
func (t *SegmentTable) Segment(id SegmentID) Segment { return t.segs[id] }

// ID returns the ID of the segment w, and false if the table has no such
// segment. It allocates nothing.
func (t *SegmentTable) ID(w []packet.NodeID) (SegmentID, bool) { return t.find(hashSegment(w), w) }

// find looks w up among the segments indexed under hash h.
func (t *SegmentTable) find(h uint64, w []packet.NodeID) (SegmentID, bool) {
	i, ok := t.index[h]
	for ok && i >= 0 {
		if id := t.rank[i]; slices.Equal(t.segs[id], w) {
			return id, true
		}
		i = t.chain[i]
	}
	return -1, false
}

// Monitored returns Pr, the IDs of the segments router r monitors, in
// ascending order; a segment that visits r twice is listed twice under
// ModeNodes. The slice aliases the table.
func (t *SegmentTable) Monitored(r packet.NodeID) []SegmentID {
	if r < 0 || int(r) >= len(t.off)-1 {
		return nil
	}
	lo, hi := t.off[r], t.off[r+1]
	return t.ids[lo:hi:hi]
}

// hashSegment mixes a segment's router IDs into its index key. Two segments
// with one hash cost the index a comparison, never a wrong answer.
func hashSegment(w []packet.NodeID) uint64 {
	h := uint64(len(w))
	for _, r := range w {
		h = (h ^ uint64(uint32(r))) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

// monitorArena accumulates the deduplicated segment universe. The sliding
// windows over the routing paths overlap enormously; a duplicate window
// costs one probe of the index and a comparison, and a unique one a copy
// into shared arena chunks — no heap object of its own, no key.
type monitorArena struct {
	index map[uint64]int32 // as SegmentTable.index
	chain []int32          // as SegmentTable.chain
	segs  []Segment        // unique segments, in the order first met
	arena []packet.NodeID  // chunked backing store for segs
	// routers is one more than the largest router ID in a segment.
	routers int
}

func (m *monitorArena) add(w []packet.NodeID) { m.insert(hashSegment(w), w) }

// insert adds w, indexed under hash h, unless it is there already.
func (m *monitorArena) insert(h uint64, w []packet.NodeID) {
	head, ok := m.index[h]
	if !ok {
		head = -1
	}
	for i := head; i >= 0; i = m.chain[i] {
		if slices.Equal(m.segs[i], w) {
			return
		}
	}
	if cap(m.arena)-len(m.arena) < len(w) {
		m.arena = make([]packet.NodeID, 0, segArenaChunk+len(w))
	}
	start := len(m.arena)
	m.arena = append(m.arena, w...)
	m.index[h] = int32(len(m.segs))
	m.chain = append(m.chain, head)
	m.segs = append(m.segs, Segment(m.arena[start:len(m.arena):len(m.arena)]))
	for _, r := range w {
		m.routers = max(m.routers, int(r)+1)
	}
}

// CompareSegments orders segments identically to comparing their encoded
// keys: element-wise by unsigned node ID, with a proper prefix first.
func CompareSegments(a, b Segment) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if uint32(a[i]) < uint32(b[i]) {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
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
// for the table's routing paths, adjacent-fault bound k, and protocol rule,
// as one SegmentTable. Routers with negative IDs are given no Pr.
func MonitorSets(paths *PathTable, k int, mode MonitorMode) *SegmentTable {
	if k < 1 {
		k = 1
	}
	m := monitorArena{index: make(map[uint64]int32)}
	forEachWindow(paths, k+2, mode, m.add)
	return m.table(mode)
}

// table numbers the arena's segments and files them under the routers the
// rule assigns them to.
func (m *monitorArena) table(mode MonitorMode) *SegmentTable {
	// Number the segments in key order; the index keeps the order they were
	// met in, and rank translates.
	order := make([]int32, len(m.segs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return CompareSegments(m.segs[a], m.segs[b]) })
	t := &SegmentTable{
		segs:  make([]Segment, len(order)),
		index: m.index,
		chain: m.chain,
		rank:  make([]SegmentID, len(order)),
		off:   make([]int32, m.routers+1),
	}
	for id, i := range order {
		t.segs[id] = m.segs[i]
		t.rank[i] = SegmentID(id)
	}

	// Counting sort by owner: a router's IDs come out ascending.
	var ends [2]packet.NodeID
	for _, seg := range t.segs {
		for _, r := range owners(seg, mode, &ends) {
			if r >= 0 {
				t.off[r+1]++
			}
		}
	}
	for r := 1; r < len(t.off); r++ {
		t.off[r] += t.off[r-1]
	}
	t.ids = make([]SegmentID, t.off[len(t.off)-1])
	next := slices.Clone(t.off[:len(t.off)-1])
	for id, seg := range t.segs {
		for _, r := range owners(seg, mode, &ends) {
			if r >= 0 {
				t.ids[next[r]] = SegmentID(id)
				next[r]++
			}
		}
	}
	return t
}

// owners returns the routers the rule files seg under: every router of it
// under ModeNodes, its one or two ends, written into ends, under ModeEnds.
func owners(seg Segment, mode MonitorMode, ends *[2]packet.NodeID) []packet.NodeID {
	if mode == ModeNodes {
		return seg
	}
	ends[0], ends[1] = seg[0], seg[len(seg)-1]
	if ends[1] == ends[0] {
		return ends[:1]
	}
	return ends[:]
}

// MonitorSetSizes computes |Pr| per router — len(Monitored(r)) for the
// table MonitorSets would return, indexed by router ID over [0, n) — without
// materializing the sets. The figure-5 k-sweeps need only these sizes;
// skipping the arena copies, the numbering and the per-router ID runs
// leaves one probe of a set of keys per window, which holds less per
// segment than the arena does at large k. Routers with IDs outside [0, n)
// are ignored.
func MonitorSetSizes(paths *PathTable, k int, mode MonitorMode, n int) []int {
	if k < 1 {
		k = 1
	}
	sizes := make([]int, n)
	seen := make(map[SegmentKey]struct{})
	var kb []byte
	var ends [2]packet.NodeID
	forEachWindow(paths, k+2, mode, func(w []packet.NodeID) {
		kb = AppendKey(kb[:0], w)
		if _, dup := seen[SegmentKey(kb)]; dup {
			return
		}
		seen[SegmentKey(kb)] = struct{}{}
		for _, r := range owners(w, mode, &ends) {
			if r >= 0 && int(r) < n {
				sizes[r]++
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
