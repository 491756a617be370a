package summary

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"routerwatch/internal/packet"
)

// The fuzz harnesses below exercise the wire codecs a router exposes to its
// (possibly malicious) neighbors. The property that matters is the round
// trip: Decode(Encode(x)) reproduces x, and decoding arbitrary bytes either
// errors or yields a value that re-encodes canonically — never a panic,
// never an unbounded allocation.
//
// The f.Add calls are the checked-in seed corpus.

// fpsFromBytes derives a deterministic fingerprint list from fuzz input.
func fpsFromBytes(data []byte) []packet.Fingerprint {
	var fps []packet.Fingerprint
	for i := 0; i+8 <= len(data) && len(fps) < 256; i += 8 {
		fps = append(fps, packet.Fingerprint(binary.BigEndian.Uint64(data[i:])))
	}
	return fps
}

// elemsFromBytes is fpsFromBytes as field-element inputs.
func elemsFromBytes(data []byte) []uint64 {
	var out []uint64
	for _, fp := range fpsFromBytes(data) {
		out = append(out, uint64(fp))
	}
	return out
}

func FuzzCounterCodec(f *testing.F) {
	f.Add(Counter{Packets: 3, Bytes: 1500}.Encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 16))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCounter(data)
		if err != nil {
			return
		}
		if !bytes.Equal(c.Encode(), data) {
			t.Fatal("counter decode/encode not identity")
		}
	})
}

func FuzzFPSetCodec(f *testing.F) {
	s := NewFPSet()
	s.Add(7)
	s.Add(7)
	s.Add(1000)
	f.Add(s.Encode())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, 24))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeFPSet(data)
		if err != nil {
			return
		}
		// The encoding is canonical, so a valid decode re-encodes byte-for-byte.
		if !bytes.Equal(dec.Encode(), data) {
			t.Fatal("fpset decode/encode not identity on valid input")
		}
	})
}

// FuzzFPSetMatchesReference drives the flat-lane FPSet and the map-backed
// reference it replaced through the same script and requires every
// observable to agree after every step, so reads land between writes (a
// normalised set that is written again must re-normalise), duplicates pile
// up, and a peer-claimed multiplicity of 2³²−1 is held, written to, compared
// and re-encoded as a count. Every set draws its chunks from one Scratch,
// so a read hands chunks to the other set's next write. The script is (op,
// arg) byte pairs over two sets; fingerprints come from a 16-value domain
// in scrambled order.
func FuzzFPSetMatchesReference(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 1, 1, 3, 0, 9, 1, 9, 1, 9})       // duplicates on both sides
	f.Add([]byte{0, 5, 0, 2, 6, 0, 0, 2, 0, 7, 6, 0, 0, 5, 6, 0}) // write, read, write, read
	f.Add([]byte{0, 4, 4, 4, 2, 0, 4, 4, 2, 0, 3, 0, 5, 4})       // hostile count, copied across twice, re-decoded
	f.Add([]byte{1, 1, 2, 0, 2, 0, 3, 0, 0, 1, 2, 0})             // copy across, decode own encoding, copy again
	f.Add([]byte{})

	fpOf := func(arg byte) packet.Fingerprint {
		return packet.Fingerprint(uint64(arg%16) * 0x9e3779b97f4a7c15)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		var sc Scratch
		got := [2]*FPSet{NewFPSet(), NewFPSet()}
		got[0].UseScratch(&sc)
		got[1].UseScratch(&sc)
		ref := [2]*refFPSet{newRefFPSet(), newRefFPSet()}
		check := func(step int) {
			t.Helper()
			for i := range got {
				if got[i].Len() != ref[i].Len() {
					t.Fatalf("step %d set %d: Len %d, reference %d", step, i, got[i].Len(), ref[i].Len())
				}
				if g, r := got[i].Fingerprints(), ref[i].Fingerprints(); !slices.Equal(g, r) {
					t.Fatalf("step %d set %d: Fingerprints %x, reference %x", step, i, g, r)
				}
				for arg := byte(0); arg < 17; arg++ {
					fp := fpOf(arg) + packet.Fingerprint(arg/16) // the 17th is never added
					if g, r := got[i].Count(fp), ref[i].Count(fp); g != r {
						t.Fatalf("step %d set %d: Count(%x) %d, reference %d", step, i, uint64(fp), g, r)
					}
				}
				if g, r := got[i].Encode(), ref[i].Encode(); !bytes.Equal(g, r) {
					t.Fatalf("step %d set %d: Encode %x, reference %x", step, i, g, r)
				}
				if g, r := got[i].EncodedLen(), ref[i].EncodedLen(); g != r {
					t.Fatalf("step %d set %d: EncodedLen %d, reference %d", step, i, g, r)
				}
			}
			for i := range got {
				gotS, gotO := got[i].DiffCounts(got[1-i])
				refS, refO := ref[i].DiffCounts(ref[1-i])
				if gotS != refS || gotO != refO {
					t.Fatalf("step %d: DiffCounts %d→%d = (%d, %d), reference (%d, %d)", step, i, 1-i, gotS, gotO, refS, refO)
				}
			}
		}
		for step := 0; step+1 < len(script) && step < 512; step += 2 {
			op, arg := script[step]%7, script[step+1]
			switch op {
			case 0, 1: // Add to set op
				got[op].Add(fpOf(arg))
				ref[op].Add(fpOf(arg))
			case 2, 3: // Add one of each of the other set's fingerprints to set op-2
				i := int(op - 2)
				for _, fp := range ref[1-i].Fingerprints() {
					got[i].Add(fp)
					ref[i].Add(fp)
				}
			case 4: // Replace set 1 by a decoded entry claiming 2³²−1 copies
				entry := binary.BigEndian.AppendUint64(nil, uint64(fpOf(arg)))
				entry = binary.BigEndian.AppendUint32(entry, ^uint32(0))
				g, err := DecodeFPSet(entry)
				r, refErr := refDecodeFPSet(entry)
				if err != nil || refErr != nil {
					t.Fatalf("step %d: hostile entry rejected: %v / %v", step, err, refErr)
				}
				g.UseScratch(&sc)
				got[1], ref[1] = g, r
			case 5: // Replace set 0 by the decoding of its own encoding
				g, err := DecodeFPSet(got[0].Encode())
				r, refErr := refDecodeFPSet(ref[0].Encode())
				if (err != nil) != (refErr != nil) {
					t.Fatalf("step %d: decode of own encoding: %v, reference %v", step, err, refErr)
				}
				if err == nil { // a count that wrapped to 0 on the wire is rejected by both
					g.UseScratch(&sc)
					got[0], ref[0] = g, r
				}
			case 6: // read between writes
				check(step)
			}
		}
		check(len(script))
	})
}

// FuzzCharPolyMultiplicative checks the incremental-update identity the
// reconciliation state relies on: evaluating the characteristic polynomial
// of a union is the pointwise product of the parts' evaluations, so a router
// can fold packets in as they arrive — and in any order.
func FuzzCharPolyMultiplicative(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, bytes.Repeat([]byte{5}, 16))
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, dataA, dataB []byte) {
		a, b := elemsFromBytes(dataA), elemsFromBytes(dataB)
		pts := ReconcilePoints(5)
		evalA := EvaluateCharPoly(a, pts)
		evalB := EvaluateCharPoly(b, pts)
		union := EvaluateCharPoly(append(append([]uint64{}, a...), b...), pts)
		for i := range pts {
			if union[i] != mulMod(evalA[i], evalB[i]) {
				t.Fatalf("χ_{A∪B}(z%d) != χ_A·χ_B: %d != %d·%d",
					i, union[i], evalA[i], evalB[i])
			}
		}
	})
}

// FuzzReconcile drives Reconcile the way Πk+2's reconciling end does: the
// local set's evaluations against the Count and Evals its peer signed
// (pik2's judgeReconcile). A protocol-faulty peer signs whatever it likes,
// so every mode must return a result or an error, never panic. mode 0 is an
// honest peer: its evaluations and count are those of shared ∪ onlyPeer
// against a local shared ∪ onlyLocal, and when the two differ by no more
// than the points can recover, A∖B and B∖A (as field elements) must come
// back exactly. mode 1 keeps the honest evaluations under a forged count;
// mode 2 forges both, the evaluations read from forged.
func FuzzReconcile(f *testing.F) {
	f.Add([]byte("shared-1shared-2"), []byte("peer-onepeer-two"), []byte("localone"), []byte{}, int64(0), uint8(0))
	f.Add(bytes.Repeat([]byte{7}, 64), []byte{}, []byte{}, bytes.Repeat([]byte{0xff}, 80), int64(-1), uint8(2))
	f.Add([]byte("shared-1"), []byte{}, []byte("localonelocaltwo"), []byte{}, int64(1<<62), uint8(1))
	f.Add([]byte{}, []byte{}, []byte{}, bytes.Repeat([]byte{0}, 80), int64(0), uint8(2))

	points := ReconcilePoints(10)
	f.Fuzz(func(t *testing.T, shared, onlyPeer, onlyLocal, forged []byte, count int64, mode uint8) {
		peer := append(elemsFromBytes(shared), elemsFromBytes(onlyPeer)...)
		local := append(elemsFromBytes(shared), elemsFromBytes(onlyLocal)...)
		localEvals := EvaluateCharPoly(local, points)
		peerEvals, peerCount := EvaluateCharPoly(peer, points), len(peer)
		switch mode % 3 {
		case 1:
			peerCount = int(count)
		case 2:
			peerEvals, peerCount = elemsFromBytes(forged), int(count)
			if len(peerEvals) > len(points) {
				peerEvals = peerEvals[:len(points)]
			}
		}
		// The peer is either end of the segment.
		Reconcile(localEvals, peerEvals, points, len(local), peerCount)
		gotPeer, gotLocal, err := Reconcile(peerEvals, localEvals, points, peerCount, len(local))
		if mode%3 != 0 {
			return
		}

		// The difference is taken over field elements, and an element that
		// is an evaluation point zeroes its set's evaluation there.
		counts := make(map[uint64]int)
		for _, e := range peer {
			counts[e%FieldPrime]++
		}
		for _, e := range local {
			counts[e%FieldPrime]--
		}
		var wantPeer, wantLocal []uint64
		for e, c := range counts {
			if slices.Contains(points, e) {
				return
			}
			for ; c > 0; c-- {
				wantPeer = append(wantPeer, e)
			}
			for ; c < 0; c++ {
				wantLocal = append(wantLocal, e)
			}
		}
		if len(wantPeer)+len(wantLocal) > len(points)-1 {
			return
		}
		if err != nil {
			t.Fatalf("honest difference of %d+%d within the budget of %d: %v",
				len(wantPeer), len(wantLocal), len(points)-1, err)
		}
		for _, s := range [][]uint64{wantPeer, wantLocal, gotPeer, gotLocal} {
			slices.Sort(s)
		}
		if !slices.Equal(gotPeer, wantPeer) || !slices.Equal(gotLocal, wantLocal) {
			t.Fatalf("recovered peer-only %v, local-only %v; want %v, %v", gotPeer, gotLocal, wantPeer, wantLocal)
		}
	})
}
