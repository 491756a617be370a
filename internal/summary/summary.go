// Package summary implements the traffic-summary data structures of §2.4.1:
// counters for conservation of flow, fingerprint sets for conservation of
// content, ordered fingerprint lists for conservation of order, and
// timestamped fingerprints for conservation of timeliness — plus the
// supporting machinery: Bloom filters, polynomial set reconciliation
// (Appendix A), and hash-range sampling.
package summary

import (
	"encoding/binary"
	"sort"
	"time"

	"routerwatch/internal/packet"
)

// Counter is the conservation-of-flow summary: how many packets and bytes
// traversed a monitoring point in a validation round (the WATCHERS counter,
// §3.1; Πk+2's cheap mode, §5.2.1).
type Counter struct {
	Packets int64
	Bytes   int64
}

// Add records one packet.
func (c *Counter) Add(size int) {
	c.Packets++
	c.Bytes += int64(size)
}

// Merge adds another counter into c.
func (c *Counter) Merge(o Counter) {
	c.Packets += o.Packets
	c.Bytes += o.Bytes
}

// AppendEncode appends the counter's encoding to b and returns the
// extended slice; round-boundary paths reuse one buffer through it.
func (c Counter) AppendEncode(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(c.Packets))
	return binary.BigEndian.AppendUint64(b, uint64(c.Bytes))
}

// Encode serializes the counter for signing.
func (c Counter) Encode() []byte { return c.AppendEncode(make([]byte, 0, c.EncodedLen())) }

// EncodedLen returns len(Encode()) without materializing the encoding.
func (c Counter) EncodedLen() int { return 16 }

// FPSet is the conservation-of-content summary: the multiset of packet
// fingerprints observed in a round. Multiplicity matters — a fabricating
// router might duplicate a legitimate packet.
type FPSet struct {
	m     map[packet.Fingerprint]int
	count int
}

// NewFPSet returns an empty fingerprint set.
func NewFPSet() *FPSet { return &FPSet{m: make(map[packet.Fingerprint]int)} }

// Add inserts a fingerprint.
func (s *FPSet) Add(fp packet.Fingerprint) {
	s.m[fp]++
	s.count++
}

// Len returns the number of fingerprints (with multiplicity).
func (s *FPSet) Len() int { return s.count }

// Count returns the multiplicity of fp.
func (s *FPSet) Count(fp packet.Fingerprint) int { return s.m[fp] }

// Diff computes the multiset differences s∖o and o∖s.
func (s *FPSet) Diff(o *FPSet) (onlyS, onlyO []packet.Fingerprint) {
	for fp, n := range s.m {
		if d := n - o.m[fp]; d > 0 {
			for i := 0; i < d; i++ {
				onlyS = append(onlyS, fp)
			}
		}
	}
	for fp, n := range o.m {
		if d := n - s.m[fp]; d > 0 {
			for i := 0; i < d; i++ {
				onlyO = append(onlyO, fp)
			}
		}
	}
	sortFPs(onlyS)
	sortFPs(onlyO)
	return onlyS, onlyO
}

// DiffCounts returns |s∖o| and |o∖s| without materializing either
// difference: time and memory depend on the number of distinct
// fingerprints, never on the multiplicities a peer's encoding claims.
func (s *FPSet) DiffCounts(o *FPSet) (onlyS, onlyO int) {
	for fp, n := range s.m {
		if d := n - o.m[fp]; d > 0 {
			onlyS += d
		}
	}
	for fp, n := range o.m {
		if d := n - s.m[fp]; d > 0 {
			onlyO += d
		}
	}
	return onlyS, onlyO
}

// Fingerprints returns the distinct fingerprints in sorted order.
func (s *FPSet) Fingerprints() []packet.Fingerprint {
	out := make([]packet.Fingerprint, 0, len(s.m))
	for fp := range s.m {
		out = append(out, fp)
	}
	sortFPs(out)
	return out
}

// AppendEncode appends the canonical encoding — sorted (fp, count) pairs —
// to b and returns the extended slice.
func (s *FPSet) AppendEncode(b []byte) []byte {
	for _, fp := range s.Fingerprints() {
		b = binary.BigEndian.AppendUint64(b, uint64(fp))
		b = binary.BigEndian.AppendUint32(b, uint32(s.m[fp]))
	}
	return b
}

// Encode serializes the multiset for signing: sorted (fp, count) pairs.
func (s *FPSet) Encode() []byte { return s.AppendEncode(make([]byte, 0, s.EncodedLen())) }

// EncodedLen returns len(Encode()) without materializing the encoding.
func (s *FPSet) EncodedLen() int { return 12 * len(s.m) }

func sortFPs(fps []packet.Fingerprint) {
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
}

// OrderedFP is the conservation-of-order summary: packet fingerprints in
// observation order (§2.4.1 "maintain ordered lists of packet fingerprints
// rather than simple sets").
type OrderedFP struct {
	seq []packet.Fingerprint
}

// NewOrderedFP returns an empty ordered summary.
func NewOrderedFP() *OrderedFP { return &OrderedFP{} }

// Add appends a fingerprint.
func (o *OrderedFP) Add(fp packet.Fingerprint) { o.seq = append(o.seq, fp) }

// Len returns the number of recorded fingerprints.
func (o *OrderedFP) Len() int { return len(o.seq) }

// Seq returns the underlying sequence (not a copy; callers must not mutate).
func (o *OrderedFP) Seq() []packet.Fingerprint { return o.seq }

// AppendEncode appends the sequence encoding to b and returns the
// extended slice.
func (o *OrderedFP) AppendEncode(b []byte) []byte {
	for _, fp := range o.seq {
		b = binary.BigEndian.AppendUint64(b, uint64(fp))
	}
	return b
}

// Encode serializes the sequence for signing.
func (o *OrderedFP) Encode() []byte { return o.AppendEncode(make([]byte, 0, o.EncodedLen())) }

// EncodedLen returns len(Encode()) without materializing the encoding.
func (o *OrderedFP) EncodedLen() int { return 8 * len(o.seq) }

// ReorderAmount implements the §2.2.1 reordering metric [107]: remove from
// both streams all lost/fabricated/modified packets (i.e. keep the common
// multiset), then return |S| − |LCS(S', F')| where S' and F' are the
// filtered sent and received streams.
//
// Because fingerprints are effectively unique, the LCS is computed by
// mapping positions and taking the longest increasing subsequence,
// O(n log n) instead of the quadratic textbook LCS.
func ReorderAmount(sent, received *OrderedFP) int {
	// Common multiset filter.
	counts := make(map[packet.Fingerprint]int)
	for _, fp := range sent.seq {
		counts[fp]++
	}
	recvCommon := make([]packet.Fingerprint, 0, len(received.seq))
	rCounts := make(map[packet.Fingerprint]int)
	for _, fp := range received.seq {
		if rCounts[fp] < counts[fp] {
			rCounts[fp]++
			recvCommon = append(recvCommon, fp)
		}
	}
	sentCommon := make([]packet.Fingerprint, 0, len(sent.seq))
	sCounts := make(map[packet.Fingerprint]int)
	for _, fp := range sent.seq {
		if sCounts[fp] < rCounts[fp] {
			sCounts[fp]++
			sentCommon = append(sentCommon, fp)
		}
	}

	// Positions of each fingerprint in sentCommon, consumed in order for
	// duplicates.
	pos := make(map[packet.Fingerprint][]int)
	for i, fp := range sentCommon {
		pos[fp] = append(pos[fp], i)
	}
	mapped := make([]int, 0, len(recvCommon))
	used := make(map[packet.Fingerprint]int)
	for _, fp := range recvCommon {
		k := used[fp]
		mapped = append(mapped, pos[fp][k])
		used[fp] = k + 1
	}
	lcs := longestIncreasing(mapped)
	return len(sentCommon) - lcs
}

// longestIncreasing returns the length of the longest strictly increasing
// subsequence.
func longestIncreasing(xs []int) int {
	var tails []int
	for _, x := range xs {
		i := sort.SearchInts(tails, x)
		if i == len(tails) {
			tails = append(tails, x)
		} else {
			tails[i] = x
		}
	}
	return len(tails)
}

// TimedEntry is one record of the conservation-of-timeliness / Protocol χ
// summary: a packet fingerprint, its size, the time it entered or exited
// the monitored queue (§6.2.1's ⟨fp, ps, ts⟩ triples), and the flow it
// belongs to (for per-flow drop attribution).
type TimedEntry struct {
	FP   packet.Fingerprint
	Size int
	TS   time.Duration
	Flow packet.FlowID
}

// TimedFP is an ordered collection of TimedEntry, the Tinfo(r, Qdir, π, τ)
// structure of Protocol χ.
type TimedFP struct {
	entries []TimedEntry
}

// NewTimedFP returns an empty timed summary.
func NewTimedFP() *TimedFP { return &TimedFP{} }

// Add appends an entry.
func (t *TimedFP) Add(fp packet.Fingerprint, size int, ts time.Duration) {
	t.entries = append(t.entries, TimedEntry{FP: fp, Size: size, TS: ts})
}

// AddFlow appends an entry tagged with its flow.
func (t *TimedFP) AddFlow(fp packet.Fingerprint, size int, ts time.Duration, flow packet.FlowID) {
	t.entries = append(t.entries, TimedEntry{FP: fp, Size: size, TS: ts, Flow: flow})
}

// Len returns the number of entries.
func (t *TimedFP) Len() int { return len(t.entries) }

// Entries returns the entries (not a copy; callers must not mutate).
func (t *TimedFP) Entries() []TimedEntry { return t.entries }

// AppendEncode appends the entry encodings to b and returns the extended
// slice.
func (t *TimedFP) AppendEncode(b []byte) []byte {
	for _, e := range t.entries {
		b = binary.BigEndian.AppendUint64(b, uint64(e.FP))
		b = binary.BigEndian.AppendUint32(b, uint32(e.Size))
		b = binary.BigEndian.AppendUint64(b, uint64(e.TS))
		b = binary.BigEndian.AppendUint64(b, uint64(e.Flow))
	}
	return b
}

// Encode serializes the summary for signing.
func (t *TimedFP) Encode() []byte { return t.AppendEncode(make([]byte, 0, t.EncodedLen())) }

// EncodedLen returns len(Encode()) without materializing the encoding.
func (t *TimedFP) EncodedLen() int { return 28 * len(t.entries) }

// SampleRange is the hash-range sampling of §2.4.1 (trajectory sampling /
// SATS): a packet is monitored iff a keyed hash of its fingerprint falls
// below a threshold. Two routers sharing (K0, K1, Fraction) sample the same
// packets; routers without the keys cannot predict the sampled subset.
type SampleRange struct {
	K0, K1   uint64
	Fraction float64 // in [0, 1]
}

// Selects reports whether the fingerprint falls in the sampled range.
func (s SampleRange) Selects(fp packet.Fingerprint) bool {
	if s.Fraction >= 1 {
		return true
	}
	if s.Fraction <= 0 {
		return false
	}
	h := packet.NewHasher(s.K0, s.K1)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(fp))
	v := h.HashBytes(buf[:])
	return float64(v) < s.Fraction*float64(^uint64(0))
}
