package summary

import (
	"encoding/binary"

	"routerwatch/internal/packet"
)

// CountingBloom is what is left of the counting-filter exchange mode Πk+2
// no longer has (EXPERIMENTS.md "Overhead": 126× the bytes of a full
// summary on mesh-forward): the constructor and Add, which bench/'s
// summary.cbloom_add_ns probe compiles against. No non-test code in this
// module calls either; both go when the benchmark is next unfrozen
// (ROADMAP item 1).
type CountingBloom struct {
	counts []uint32
	k      int
	m      uint64
	hasher packet.Hasher
}

// NewCountingBloom builds a counting filter with bloomShape's sizing rule
// (and degenerate-input clamps) for expectedItems at fpRate.
func NewCountingBloom(expectedItems int, fpRate float64) *CountingBloom {
	m, k := bloomShape(expectedItems, fpRate)
	return &CountingBloom{
		counts: make([]uint32, m),
		k:      k,
		m:      m,
		hasher: packet.NewHasher(0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9),
	}
}

// Add inserts one fingerprint occurrence: exactly k increments.
func (c *CountingBloom) Add(fp packet.Fingerprint) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(fp))
	h1 := c.hasher.HashBytes(buf[:])
	h2 := h1>>33 | h1<<31
	if h2 == 0 {
		h2 = 0x27d4eb2f165667c5
	}
	for i := 0; i < c.k; i++ {
		c.counts[(h1+uint64(i)*h2)%c.m]++
	}
}
