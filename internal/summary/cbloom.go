package summary

import (
	"encoding/binary"
	"fmt"

	"routerwatch/internal/packet"
)

// CountingBloom is the mergeable counting-filter variant of the Bloom
// summary: each cell holds a counter instead of a bit, so two sketches over
// disjoint observation windows merge by cell-wise addition, and the multiset
// difference between two ends' traffic is estimated from cell-wise count
// surpluses. A segment end can therefore ship one O(sketch)-size summary per
// round regardless of traffic volume, and an aggregator can fold per-round
// sketches into per-epoch ones without revisiting packets.
//
// Every insertion performs exactly k counter increments — self-colliding
// probe indexes are incremented repeatedly rather than deduplicated — so the
// total count mass of a sketch is exactly k·n. That discipline is what makes
// the difference estimate one-sided exact in the pure-loss case: if the
// downstream multiset B is contained in the upstream multiset A, every cell
// satisfies down ≤ up, the surplus mass Σ(up−down) is exactly k·|A∖B|, and
// DiffEstimate returns the true loss count with zero fabrication — the same
// verdict a full fingerprint-list comparison reaches.
type CountingBloom struct {
	counts []uint32
	k      int
	m      uint64
	hasher packet.Hasher
	n      int
}

// NewCountingBloom builds a sketch sized for expectedItems at the target
// collision rate, with the same sizing rule (and degenerate-input clamps) as
// NewBloom so the two variants agree on geometry for a given configuration.
func NewCountingBloom(expectedItems int, fpRate float64) *CountingBloom {
	b := NewBloom(expectedItems, fpRate)
	return &CountingBloom{
		counts: make([]uint32, b.m),
		k:      b.k,
		m:      b.m,
		hasher: b.hasher,
	}
}

func (c *CountingBloom) indexes(fp packet.Fingerprint) (h1, h2 uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(fp))
	h1 = c.hasher.HashBytes(buf[:])
	h2 = h1>>33 | h1<<31
	if h2 == 0 {
		h2 = 0x27d4eb2f165667c5
	}
	return h1, h2
}

// Add inserts one fingerprint occurrence: exactly k increments.
func (c *CountingBloom) Add(fp packet.Fingerprint) {
	h1, h2 := c.indexes(fp)
	for i := 0; i < c.k; i++ {
		c.counts[(h1+uint64(i)*h2)%c.m]++
	}
	c.n++
}

// N returns the number of inserted occurrences.
func (c *CountingBloom) N() int { return c.n }

// K returns the per-insertion increment count.
func (c *CountingBloom) K() int { return c.k }

// SizeBytes returns the sketch's wire size: the quantity that replaces the
// O(packets) fingerprint list in a summary exchange.
func (c *CountingBloom) SizeBytes() int { return 4*len(c.counts) + 16 }

// Compatible reports whether two sketches share geometry and can be merged
// or differenced.
func (c *CountingBloom) Compatible(o *CountingBloom) bool {
	return c.m == o.m && c.k == o.k
}

// Merge folds o into c cell-wise; both sketches must be compatible. Merging
// commutes with insertion: Merge(sketch(A), sketch(B)) = sketch(A ⊎ B), so
// per-round sketches roll up into per-epoch ones exactly.
func (c *CountingBloom) Merge(o *CountingBloom) {
	if !c.Compatible(o) {
		panic("summary: merging incompatible CountingBloom sketches")
	}
	for i, v := range o.counts {
		c.counts[i] += v
	}
	c.n += o.n
}

// Clone returns an independent copy.
func (c *CountingBloom) Clone() *CountingBloom {
	out := *c
	out.counts = append([]uint32(nil), c.counts...)
	return &out
}

// DiffEstimate estimates the two one-sided multiset differences between the
// sketched sets: onlyC ≈ |C∖O| (mass present in c but not o) and
// onlyO ≈ |O∖C|. Each insertion contributes exactly k of count mass, so the
// cell-wise surplus sums divide by k; ceiling division makes any nonzero
// surplus visible as at least one packet. When one multiset contains the
// other the containing side's estimate is exact and the other is zero;
// otherwise hash collisions can cancel opposing surpluses, underestimating
// both sides by a bounded amount (the sketch is sized so the collision rate
// is the configured fpRate).
func (c *CountingBloom) DiffEstimate(o *CountingBloom) (onlyC, onlyO int) {
	if !c.Compatible(o) {
		panic("summary: differencing incompatible CountingBloom sketches")
	}
	var surC, surO uint64
	for i, v := range c.counts {
		w := o.counts[i]
		if v > w {
			surC += uint64(v - w)
		} else {
			surO += uint64(w - v)
		}
	}
	k := uint64(c.k)
	return int((surC + k - 1) / k), int((surO + k - 1) / k)
}

// AppendEncode appends the sketch's canonical encoding: geometry header
// (m, k, n) then the cells.
func (c *CountingBloom) AppendEncode(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, c.m)
	b = binary.BigEndian.AppendUint32(b, uint32(c.k))
	b = binary.BigEndian.AppendUint32(b, uint32(c.n))
	for _, v := range c.counts {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	return b
}

// DecodeCountingBloom reverses AppendEncode, returning the remaining bytes.
func DecodeCountingBloom(b []byte) (*CountingBloom, []byte, error) {
	if len(b) < 16 {
		return nil, b, fmt.Errorf("summary: short CountingBloom header")
	}
	m := binary.BigEndian.Uint64(b)
	k := int(binary.BigEndian.Uint32(b[8:]))
	n := int(binary.BigEndian.Uint32(b[12:]))
	b = b[16:]
	if m == 0 || m > 1<<28 || k < 1 || k > 16 {
		return nil, b, fmt.Errorf("summary: implausible CountingBloom geometry m=%d k=%d", m, k)
	}
	if uint64(len(b)) < 4*m {
		return nil, b, fmt.Errorf("summary: short CountingBloom body")
	}
	c := &CountingBloom{
		counts: make([]uint32, m),
		k:      k,
		m:      m,
		hasher: packet.NewHasher(0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9),
		n:      n,
	}
	for i := range c.counts {
		c.counts[i] = binary.BigEndian.Uint32(b[4*i:])
	}
	return c, b[4*m:], nil
}
