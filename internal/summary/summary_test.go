package summary

import (
	"bytes"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"routerwatch/internal/packet"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(100)
	c.Add(200)
	if c.Packets != 2 || c.Bytes != 300 {
		t.Fatalf("counter = %+v", c)
	}
	if len(c.Encode()) != 16 {
		t.Fatal("encode size")
	}
}

func TestFPSetDiff(t *testing.T) {
	a, b := NewFPSet(), NewFPSet()
	refA, refB := newRefFPSet(), newRefFPSet()
	for _, fp := range []packet.Fingerprint{1, 2, 3, 3} {
		a.Add(fp)
		refA.Add(fp)
	}
	for _, fp := range []packet.Fingerprint{2, 3, 4} {
		b.Add(fp)
		refB.Add(fp)
	}
	// The materialised difference lives on in the reference only.
	onlyA, onlyB := refA.Diff(refB)
	if len(onlyA) != 2 || onlyA[0] != 1 || onlyA[1] != 3 {
		t.Fatalf("onlyA = %v", onlyA)
	}
	if len(onlyB) != 1 || onlyB[0] != 4 {
		t.Fatalf("onlyB = %v", onlyB)
	}
	if nA, nB := a.DiffCounts(b); nA != len(onlyA) || nB != len(onlyB) {
		t.Fatalf("DiffCounts = (%d, %d), want (%d, %d)", nA, nB, len(onlyA), len(onlyB))
	}
	if a.Len() != 4 || a.Count(3) != 2 {
		t.Fatalf("len/count wrong: %d %d", a.Len(), a.Count(3))
	}
}

func TestFPSetEncodeDeterministic(t *testing.T) {
	a, b := NewFPSet(), NewFPSet()
	fps := []packet.Fingerprint{9, 1, 5, 5, 2}
	for _, fp := range fps {
		a.Add(fp)
	}
	for i := len(fps) - 1; i >= 0; i-- {
		b.Add(fps[i])
	}
	if string(a.Encode()) != string(b.Encode()) {
		t.Fatal("encoding depends on insertion order")
	}
}

func TestReorderAmountIdentity(t *testing.T) {
	s, r := NewOrderedFP(), NewOrderedFP()
	for i := packet.Fingerprint(0); i < 100; i++ {
		s.Add(i)
		r.Add(i)
	}
	if got := ReorderAmount(s, r); got != 0 {
		t.Fatalf("in-order streams reorder amount %d", got)
	}
}

func TestReorderAmountSwap(t *testing.T) {
	s, r := NewOrderedFP(), NewOrderedFP()
	for _, fp := range []packet.Fingerprint{1, 2, 3, 4, 5} {
		s.Add(fp)
	}
	for _, fp := range []packet.Fingerprint{1, 3, 2, 4, 5} {
		r.Add(fp)
	}
	// LCS of 12345 and 13245 is 4 (e.g. 1345) → amount 1.
	if got := ReorderAmount(s, r); got != 1 {
		t.Fatalf("single swap reorder amount %d, want 1", got)
	}
}

func TestReorderAmountReversal(t *testing.T) {
	s, r := NewOrderedFP(), NewOrderedFP()
	n := 50
	for i := 0; i < n; i++ {
		s.Add(packet.Fingerprint(i))
	}
	for i := n - 1; i >= 0; i-- {
		r.Add(packet.Fingerprint(i))
	}
	if got := ReorderAmount(s, r); got != n-1 {
		t.Fatalf("full reversal reorder amount %d, want %d", got, n-1)
	}
}

func TestReorderAmountIgnoresLosses(t *testing.T) {
	// Lost and fabricated packets are filtered before the LCS (§2.2.1).
	s, r := NewOrderedFP(), NewOrderedFP()
	for _, fp := range []packet.Fingerprint{1, 2, 3, 4, 5, 6} {
		s.Add(fp)
	}
	// 2 and 5 lost, 99 fabricated, order of survivors preserved.
	for _, fp := range []packet.Fingerprint{1, 99, 3, 4, 6} {
		r.Add(fp)
	}
	if got := ReorderAmount(s, r); got != 0 {
		t.Fatalf("losses counted as reordering: %d", got)
	}
}

func TestReorderAmountProperty(t *testing.T) {
	// Permuting a stream never yields a negative amount and is zero iff
	// the permutation is the identity on the common part.
	f := func(perm []uint8) bool {
		s, r := NewOrderedFP(), NewOrderedFP()
		for i := range perm {
			s.Add(packet.Fingerprint(i))
		}
		rng := rand.New(rand.NewSource(int64(len(perm))))
		order := rng.Perm(len(perm))
		for _, i := range order {
			r.Add(packet.Fingerprint(i))
		}
		amt := ReorderAmount(s, r)
		return amt >= 0 && amt < max(len(perm), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestReorderAmountMatchesReference compares the sort-and-merge metric with
// the map-based one it replaced on streams with duplicates, losses,
// fabrications and local shuffles.
func TestReorderAmountMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		sent, received := NewOrderedFP(), NewOrderedFP()
		domain := 1 + rng.Intn(40) // small domains force duplicate fingerprints
		var stream []packet.Fingerprint
		for i, n := 0, rng.Intn(60); i < n; i++ {
			fp := packet.Fingerprint(rng.Intn(domain))
			sent.Add(fp)
			if rng.Intn(8) != 0 { // else lost
				stream = append(stream, fp)
			}
			if rng.Intn(10) == 0 { // fabricated, possibly a duplicate of a real one
				stream = append(stream, packet.Fingerprint(rng.Intn(domain+5)))
			}
		}
		for i := range stream { // swap with a neighbour up to 4 away
			if j := i + rng.Intn(5); rng.Intn(3) == 0 && j < len(stream) {
				stream[i], stream[j] = stream[j], stream[i]
			}
		}
		for _, fp := range stream {
			received.Add(fp)
		}
		if got, want := ReorderAmount(sent, received), refReorderAmount(sent, received); got != want {
			t.Fatalf("trial %d: ReorderAmount(%v, %v) = %d, reference %d", trial, sent.Seq(), received.Seq(), got, want)
		}
	}
}

func TestSampleRangeFraction(t *testing.T) {
	s := SampleRange{K0: 1, K1: 2, Fraction: 0.25}
	hits := 0
	n := 20000
	for i := 0; i < n; i++ {
		if s.Selects(packet.Fingerprint(i * 2654435761)) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if got < 0.22 || got > 0.28 {
		t.Fatalf("sampled fraction %.3f, want ≈0.25", got)
	}
}

func TestSampleRangeAgreement(t *testing.T) {
	// Two routers with the same keys sample identical subsets; different
	// keys sample different subsets.
	a := SampleRange{K0: 1, K1: 2, Fraction: 0.5}
	b := SampleRange{K0: 1, K1: 2, Fraction: 0.5}
	c := SampleRange{K0: 3, K1: 4, Fraction: 0.5}
	differs := false
	for i := 0; i < 1000; i++ {
		fp := packet.Fingerprint(i * 888888877)
		if a.Selects(fp) != b.Selects(fp) {
			t.Fatal("same-key samplers disagree")
		}
		if a.Selects(fp) != c.Selects(fp) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different-key samplers never disagree")
	}
}

func TestSampleRangeEdges(t *testing.T) {
	all := SampleRange{Fraction: 1}
	none := SampleRange{Fraction: 0}
	if !all.Selects(42) || none.Selects(42) {
		t.Fatal("edge fractions wrong")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// A set's Adds land in 64-fingerprint chunks until a read copies them out,
// so the edges that matter are an empty chain, a partial chunk, a full one,
// one Add past it, and many chunks — each with reads between the writes. A
// set drawing chunks from a shared Scratch, one allocating each chunk fresh
// and the map-backed reference must agree on every read.
func TestFPSetChunkEdges(t *testing.T) {
	fpOf := func(i int) packet.Fingerprint {
		return packet.Fingerprint(uint64(i*i%701) * 0x9e3779b97f4a7c15) // repeats past 701
	}
	other, otherRef := NewFPSet(), newRefFPSet()
	for i := 0; i < 100; i++ {
		other.Add(fpOf(3 * i))
		otherRef.Add(fpOf(3 * i))
	}
	var sc Scratch
	for _, adds := range []int{0, 1, 63, 64, 65, 1000} {
		for _, every := range []int{0, 1, 7, 64, 65} { // read after every so many Adds; 0 reads at the end only
			pooled, fresh, ref := NewFPSet(), NewFPSet(), newRefFPSet()
			pooled.UseScratch(&sc)
			check := func(done int) {
				t.Helper()
				want := ref.Encode()
				for i, s := range []*FPSet{pooled, fresh} {
					name := [...]string{"pooled", "fresh"}[i]
					if got := s.Encode(); !bytes.Equal(got, want) {
						t.Fatalf("%d Adds, read every %d, after %d: %s Encode differs from the reference", adds, every, done, name)
					}
					gotS, gotO := s.DiffCounts(other)
					refS, refO := ref.DiffCounts(otherRef)
					if gotS != refS || gotO != refO {
						t.Fatalf("%d Adds, read every %d, after %d: %s DiffCounts (%d, %d), reference (%d, %d)",
							adds, every, done, name, gotS, gotO, refS, refO)
					}
					for _, fp := range []packet.Fingerprint{fpOf(0), fpOf(1), fpOf(done), fpOf(700)} {
						if g, r := s.Count(fp), ref.Count(fp); g != r {
							t.Fatalf("%d Adds, read every %d, after %d: %s Count(%x) %d, reference %d",
								adds, every, done, name, uint64(fp), g, r)
						}
					}
					if s.Len() != ref.Len() {
						t.Fatalf("%d Adds, read every %d, after %d: %s Len %d, reference %d", adds, every, done, name, s.Len(), ref.Len())
					}
				}
			}
			for i := 0; i < adds; i++ {
				pooled.Add(fpOf(i))
				fresh.Add(fpOf(i))
				ref.Add(fpOf(i))
				if every > 0 && (i+1)%every == 0 {
					check(i + 1)
				}
			}
			check(adds)
		}
	}
}

// A read gives a set's chunks back to its Scratch, and the next set to
// record draws them and overwrites them with its own fingerprints: the
// first set's lane, copied out at its read, must not change — whether the
// set filled part of one chunk or several.
func TestFPSetReadLaneOutlivesItsChunks(t *testing.T) {
	for _, n := range []int{10, 200} {
		var sc Scratch
		first := NewFPSet()
		first.UseScratch(&sc)
		for i := 0; i < n; i++ {
			first.Add(packet.Fingerprint(i))
		}
		chunks := chain(first)
		enc := first.Encode()
		fps := slices.Clone(first.Fingerprints())

		second := NewFPSet()
		second.UseScratch(&sc)
		for i := 0; i < n; i++ {
			second.Add(packet.Fingerprint(1_000_000 + i))
		}
		if !maps.Equal(chain(second), chunks) {
			t.Fatalf("%d: the second set does not record into the chunks the first set's read gave back", n)
		}
		if !bytes.Equal(first.Encode(), enc) || !slices.Equal(first.Fingerprints(), fps) {
			t.Fatalf("%d: a read set changed when its chunks were recorded into again", n)
		}
		if second.Len() != n || second.Count(1_000_000) != 1 || second.Count(0) != 0 {
			t.Fatalf("%d: second set: Len %d, Count %d / %d", n, second.Len(), second.Count(1_000_000), second.Count(0))
		}
	}
}

// TestCarvedLanesDoNotAlias: the lanes reads copy a set's Adds out into are
// cut side by side from one of its Scratch's lane chunks, so each is capped
// at its length and nothing written into one set can reach its neighbour.
// Two sets are read from one Scratch; then the first records again and is
// read again, which merges its lanes into fresh ones. The second set's
// lane, cut just after the first's, and its wire bytes must not change.
func TestCarvedLanesDoNotAlias(t *testing.T) {
	var sc Scratch
	first, second := NewFPSet(), NewFPSet()
	first.UseScratch(&sc)
	second.UseScratch(&sc)
	for i := 0; i < 100; i++ {
		first.Add(packet.Fingerprint(2 * i))
		second.Add(packet.Fingerprint(2*i + 1))
	}
	a, b := first.Fingerprints(), second.Fingerprints()
	for _, l := range [][]packet.Fingerprint{a, b} {
		if cap(l) != len(l) {
			t.Fatalf("a carved lane of %d fingerprints has capacity %d", len(l), cap(l))
		}
	}
	if unsafe.Pointer(unsafe.SliceData(b)) != unsafe.Add(unsafe.Pointer(unsafe.SliceData(a)), 8*len(a)) {
		t.Fatal("the two lanes were not cut side by side from one lane chunk")
	}
	fps, enc := slices.Clone(b), second.AppendEncode(nil)

	for i := 0; i < 300; i++ {
		first.Add(packet.Fingerprint(i))
	}
	if first.Len() != 400 || first.Count(0) != 2 || first.Count(299) != 1 {
		t.Fatalf("first set after its merge: Len %d, Count(0) %d, Count(299) %d", first.Len(), first.Count(0), first.Count(299))
	}
	if !slices.Equal(second.Fingerprints(), fps) || !bytes.Equal(second.AppendEncode(nil), enc) {
		t.Fatal("the second set's lane changed when the first set recorded and was read again")
	}

	for _, n := range []int{0, 1, 63, 64, laneChunk / 4, laneChunk/4 + 1, laneChunk} {
		for _, sc := range []*Scratch{&sc, nil} {
			if l := sc.lane(n); len(l) != 0 || cap(l) != n {
				t.Errorf("lane(%d) from Scratch %p: len %d, cap %d", n, sc, len(l), cap(l))
			}
		}
	}
}

// chain returns the chunks holding s's unread Adds.
func chain(s *FPSet) map[*chunk]bool {
	in := make(map[*chunk]bool)
	for c := s.last; c != nil; c = c.next {
		in[c] = true
	}
	return in
}
