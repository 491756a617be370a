// Package summary implements the traffic-summary data structures of §2.4.1:
// counters for conservation of flow, fingerprint sets for conservation of
// content, ordered fingerprint lists for conservation of order, and
// timestamped fingerprints for conservation of timeliness — plus the
// supporting machinery: the Bloom-filter sizing rule, polynomial set
// reconciliation (Appendix A), and hash-range sampling.
//
// Each summary's wire decoder sits beside its AppendEncode. Decoders
// validate their input — a malicious router controls the bytes on the wire,
// so malformed input must yield an error, never a panic or an oversized
// allocation.
package summary

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"routerwatch/internal/packet"
)

// ErrCodec reports malformed summary bytes.
var ErrCodec = errors.New("summary: malformed encoding")

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

// DecodeCounter parses an encoded Counter.
func DecodeCounter(data []byte) (Counter, error) {
	if len(data) != 16 {
		return Counter{}, fmt.Errorf("%w: counter is %d bytes, want 16", ErrCodec, len(data))
	}
	return Counter{
		Packets: int64(binary.BigEndian.Uint64(data)),
		Bytes:   int64(binary.BigEndian.Uint64(data[8:])),
	}, nil
}

// FPSet is the conservation-of-content summary: the multiset of packet
// fingerprints observed in a round. Multiplicity matters — a fabricating
// router might duplicate a legitimate packet.
//
// The set is flat lanes, not a map. Add writes into a chain of chunks; the
// first read after a write copies them into one lane of exactly their size,
// gives them back to the Scratch they came from, and sorts and compacts the
// lane in place, so that every operation below is a linear pass over
// strictly increasing fingerprints (the canonical wire bytes are the lane
// written out). A lane once read is never pooled or rearranged: a sent
// summary is its peer's to read. A multiplicity is a count beside its
// fingerprint, never adjacent copies: a peer's encoding may claim 2³²−1 of
// one fingerprint in twelve bytes, and holding or comparing that must cost
// one entry. The zero value is an empty set that allocates each chunk
// fresh.
type FPSet struct {
	lanes
	// last is the newest of the chunks holding the Adds since the last
	// read, nil when nothing is unread; each chunk's next is the one
	// before it. Add fills last from the back: its last chunkLen−room
	// slots are written, every older chunk is full.
	last    *chunk
	room    int
	count   int
	scratch *Scratch
}

// chunkLen is how many fingerprints a recording chunk holds: 64 wastes
// little on the short lanes most segment-rounds record and links rarely on
// the long ones.
const chunkLen = 64

// chunk is a run of unread Adds, or a free chunk. next comes first, so
// the collector scans one word of it.
type chunk struct {
	next *chunk
	fps  [chunkLen]packet.Fingerprint
}

// scratchCarve is how many chunks a Scratch carves per allocation: 63
// chunks of 520 bytes fill the allocator's 32 KB size class to its last 8
// bytes, where 32 of them left 1 792 bytes of an 18 KB class unused.
const scratchCarve = 63

// Scratch is a pool of recording chunks for the FPSets that use it. A read
// gives a set's chunks back and the next Add anywhere takes the most
// recently freed one (LIFO), carving a fresh run of scratchCarve chunks
// only when none is free, so under steady traffic a round records into the
// chunks the rounds before it were read out of. Like packet.Arena, a
// Scratch is single-goroutine: one deployment's sets share it. The zero
// value is ready to use; a nil Scratch allocates every chunk fresh.
type Scratch struct {
	free   *chunk
	carved []chunk
	chunks int
}

// Chunks returns how many chunks sc has carved. It stops growing once
// reads give back as many as recording takes.
func (sc *Scratch) Chunks() int { return sc.chunks }

// get returns a chunk to write into; its next is nil and its contents are
// garbage.
func (sc *Scratch) get() *chunk {
	if sc == nil {
		return new(chunk)
	}
	if c := sc.free; c != nil {
		sc.free, c.next = c.next, nil
		return c
	}
	if len(sc.carved) == 0 {
		sc.carved = make([]chunk, scratchCarve)
		sc.chunks += scratchCarve
	}
	c := &sc.carved[0]
	sc.carved = sc.carved[1:]
	return c
}

// put takes back the chain first … last, linked through next.
func (sc *Scratch) put(first, last *chunk) {
	if sc != nil {
		last.next, sc.free = sc.free, first
	}
}

// lanes is a run-length multiset: strictly increasing fingerprints and
// their multiplicities in parallel. counts stays nil while every
// multiplicity is 1, which is every round of honest traffic (fingerprints
// are effectively unique), so the common set is one lane.
type lanes struct {
	fps    []packet.Fingerprint
	counts []int
}

// mult returns the multiplicity of fps[i].
func (l *lanes) mult(i int) int {
	if l.counts == nil {
		return 1
	}
	return l.counts[i]
}

// push appends n copies of fp, which must exceed every fingerprint pushed
// before it.
func (l *lanes) push(fp packet.Fingerprint, n int) {
	if n != 1 && l.counts == nil {
		l.counts = make([]int, len(l.fps), cap(l.fps))
		for i := range l.counts {
			l.counts[i] = 1
		}
	}
	l.fps = append(l.fps, fp)
	if l.counts != nil {
		l.counts = append(l.counts, n)
	}
}

// compactRuns run-length encodes sorted in place: the result's fps aliases
// sorted's storage.
func compactRuns(sorted []packet.Fingerprint) lanes {
	out := lanes{fps: sorted[:0:len(sorted)]}
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		out.push(sorted[i], j-i)
		i = j
	}
	return out
}

// mergeRuns returns the multiset sum of a and b in fresh lanes.
func mergeRuns(a, b lanes) lanes {
	out := lanes{fps: make([]packet.Fingerprint, 0, len(a.fps)+len(b.fps))}
	i, j := 0, 0
	for i < len(a.fps) && j < len(b.fps) {
		switch x, y := a.fps[i], b.fps[j]; {
		case x < y:
			out.push(x, a.mult(i))
			i++
		case x > y:
			out.push(y, b.mult(j))
			j++
		default:
			out.push(x, a.mult(i)+b.mult(j))
			i, j = i+1, j+1
		}
	}
	for ; i < len(a.fps); i++ {
		out.push(a.fps[i], a.mult(i))
	}
	for ; j < len(b.fps); j++ {
		out.push(b.fps[j], b.mult(j))
	}
	return out
}

// NewFPSet returns an empty fingerprint set.
func NewFPSet() *FPSet { return &FPSet{} }

// UseScratch makes s draw the chunks its Adds are recorded into from sc.
func (s *FPSet) UseScratch(sc *Scratch) { s.scratch = sc }

// Add inserts a fingerprint.
func (s *FPSet) Add(fp packet.Fingerprint) {
	if s.room == 0 {
		s.link()
	}
	s.room--
	s.last.fps[s.room] = fp
	s.count++
}

// link starts a chunk for Add to write into. It is kept out of Add's line
// so that Add, which runs per recorded packet, inlines.
//
//go:noinline
func (s *FPSet) link() {
	c := s.scratch.get()
	c.next = s.last
	s.last, s.room = c, chunkLen
}

// normalise folds the Adds since the last read into the lanes. The first
// read of a set sorts and compacts the copied-out lane in place; a read
// after a later write merges the sorted newcomers into fresh lanes, so a
// lane once read is never rearranged under a reader that still holds it.
func (s *FPSet) normalise() {
	if s.last == nil {
		return
	}
	unread := chunkLen - s.room
	oldest := s.last
	for ; oldest.next != nil; oldest = oldest.next {
		unread += chunkLen
	}
	added := append(make([]packet.Fingerprint, 0, unread), s.last.fps[s.room:]...)
	for c := s.last.next; c != nil; c = c.next {
		added = append(added, c.fps[:]...)
	}
	s.scratch.put(s.last, oldest)
	s.last, s.room = nil, 0

	slices.Sort(added)
	if len(s.fps) == 0 {
		s.lanes = compactRuns(added)
	} else {
		s.lanes = mergeRuns(s.lanes, compactRuns(added))
	}
}

// Len returns the number of fingerprints (with multiplicity).
func (s *FPSet) Len() int { return s.count }

// Count returns the multiplicity of fp.
func (s *FPSet) Count(fp packet.Fingerprint) int {
	s.normalise()
	if i, ok := slices.BinarySearch(s.fps, fp); ok {
		return s.mult(i)
	}
	return 0
}

// DiffCounts returns |s∖o| and |o∖s| without materializing either
// difference: one merge pass over the two normalised sets, so time and
// memory depend on the number of distinct fingerprints, never on the
// multiplicities a peer's encoding claims.
func (s *FPSet) DiffCounts(o *FPSet) (onlyS, onlyO int) {
	s.normalise()
	o.normalise()
	i, j := 0, 0
	for i < len(s.fps) && j < len(o.fps) {
		switch x, y := s.fps[i], o.fps[j]; {
		case x < y:
			onlyS += s.mult(i)
			i++
		case x > y:
			onlyO += o.mult(j)
			j++
		default:
			if d := s.mult(i) - o.mult(j); d > 0 {
				onlyS += d
			} else {
				onlyO -= d
			}
			i, j = i+1, j+1
		}
	}
	for ; i < len(s.fps); i++ {
		onlyS += s.mult(i)
	}
	for ; j < len(o.fps); j++ {
		onlyO += o.mult(j)
	}
	return onlyS, onlyO
}

// Fingerprints returns the distinct fingerprints in sorted order (not a
// copy; callers must not mutate).
func (s *FPSet) Fingerprints() []packet.Fingerprint {
	s.normalise()
	return s.fps[:len(s.fps):len(s.fps)]
}

// AppendMultiset appends every fingerprint to dst in sorted order, each
// repeated by its multiplicity, and returns the extended slice: the field
// elements reconciliation consumes.
func (s *FPSet) AppendMultiset(dst []uint64) []uint64 {
	s.normalise()
	for i, fp := range s.fps {
		for n := s.mult(i); n > 0; n-- {
			dst = append(dst, uint64(fp))
		}
	}
	return dst
}

// AppendEncode appends the canonical encoding — sorted (fp, count) pairs —
// to b and returns the extended slice.
func (s *FPSet) AppendEncode(b []byte) []byte {
	s.normalise()
	at := len(b)
	b = slices.Grow(b, 12*len(s.fps))[:at+12*len(s.fps)]
	for i, fp := range s.fps {
		binary.BigEndian.PutUint64(b[at:], uint64(fp))
		binary.BigEndian.PutUint32(b[at+8:], uint32(s.mult(i)))
		at += 12
	}
	return b
}

// Encode serializes the multiset for signing: sorted (fp, count) pairs.
func (s *FPSet) Encode() []byte { return s.AppendEncode(make([]byte, 0, s.EncodedLen())) }

// EncodedLen returns len(Encode()) without materializing the encoding.
func (s *FPSet) EncodedLen() int {
	s.normalise()
	return 12 * len(s.fps)
}

// DecodeFPSet parses an encoded fingerprint multiset. The encoding is
// canonical — strictly increasing fingerprints with positive counts — and
// the decoder rejects anything else, so Encode∘DecodeFPSet is the identity
// on valid input.
func DecodeFPSet(data []byte) (*FPSet, error) {
	if len(data)%12 != 0 {
		return nil, fmt.Errorf("%w: fpset length %d not a multiple of 12", ErrCodec, len(data))
	}
	s := &FPSet{lanes: lanes{fps: make([]packet.Fingerprint, 0, len(data)/12)}}
	var prev packet.Fingerprint
	for i := 0; i < len(data); i += 12 {
		fp := packet.Fingerprint(binary.BigEndian.Uint64(data[i:]))
		n := binary.BigEndian.Uint32(data[i+8:])
		if n == 0 {
			return nil, fmt.Errorf("%w: fpset zero count for %x", ErrCodec, uint64(fp))
		}
		if i > 0 && fp <= prev {
			return nil, fmt.Errorf("%w: fpset fingerprints not strictly increasing", ErrCodec)
		}
		prev = fp
		s.push(fp, int(n))
		s.count += int(n)
	}
	return s, nil
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

// DecodeOrderedFP parses an encoded sequence; any whole number of
// fingerprints is valid.
func DecodeOrderedFP(data []byte) (*OrderedFP, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("%w: ordered length %d not a multiple of 8", ErrCodec, len(data))
	}
	o := &OrderedFP{seq: make([]packet.Fingerprint, 0, len(data)/8)}
	for i := 0; i < len(data); i += 8 {
		o.Add(packet.Fingerprint(binary.BigEndian.Uint64(data[i:])))
	}
	return o, nil
}

// ReorderAmount implements the §2.2.1 reordering metric [107]: remove from
// both streams all lost/fabricated/modified packets (i.e. keep the common
// multiset), then return |S| − |LCS(S', F')| where S' and F' are the
// filtered sent and received streams.
//
// Because fingerprints are effectively unique, the LCS is computed by
// mapping positions and taking the longest increasing subsequence,
// O(n log n) instead of the quadratic textbook LCS.
func ReorderAmount(sent, received *OrderedFP) int {
	// Pair the k-th occurrence of a fingerprint in the received stream with
	// its k-th occurrence in the sent stream, for as many occurrences as
	// both streams have; what stays unpaired on either side is loss or
	// fabrication. Walking both streams in (fingerprint, position) order
	// pairs them in one merge pass.
	s, r := byFingerprint(sent.seq), byFingerprint(received.seq)
	sentPos := make([]int, len(received.seq)) // received position → paired sent position
	for i := range sentPos {
		sentPos[i] = -1
	}
	for i, j := 0, 0; i < len(s) && j < len(r); {
		switch x, y := sent.seq[s[i]], received.seq[r[j]]; {
		case x < y:
			i++
		case x > y:
			j++
		default:
			sentPos[r[j]] = s[i]
			i, j = i+1, j+1
		}
	}
	// The paired packets in received order, named by where they were sent:
	// the longest run that kept its sent order is the LCS.
	mapped := sentPos[:0]
	for _, at := range sentPos {
		if at >= 0 {
			mapped = append(mapped, at)
		}
	}
	return len(mapped) - longestIncreasing(mapped)
}

// byFingerprint returns seq's positions ordered by fingerprint, equal
// fingerprints in stream order.
func byFingerprint(seq []packet.Fingerprint) []int {
	idx := make([]int, len(seq))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(seq[a], seq[b]) })
	return idx
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
