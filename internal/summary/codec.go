package summary

import (
	"encoding/binary"
	"errors"
	"fmt"

	"routerwatch/internal/packet"
)

// This file holds the wire codecs for the summaries that routers exchange:
// the reverse direction of the Encode methods, plus the merge operations a
// router needs to combine summaries from parallel monitoring points. Decoders
// validate their input — a malicious router controls the bytes on the wire,
// so malformed input must yield an error, never a panic or an oversized
// allocation.

// ErrCodec reports malformed summary bytes.
var ErrCodec = errors.New("summary: malformed encoding")

// maxBloomBits bounds decoded filter sizes (16 MiB of bits) so a hostile
// length prefix cannot force an arbitrary allocation.
const maxBloomBits = 1 << 27

// AppendEncode appends the filter encoding to out and returns the extended
// slice.
func (b *Bloom) AppendEncode(out []byte) []byte {
	out = binary.BigEndian.AppendUint32(out, uint32(b.k))
	out = binary.BigEndian.AppendUint64(out, b.m)
	out = binary.BigEndian.AppendUint64(out, uint64(b.n))
	for _, w := range b.bits {
		out = binary.BigEndian.AppendUint64(out, w)
	}
	return out
}

// Encode serializes the filter: k, m, n, then the bit words, all big-endian.
func (b *Bloom) Encode() []byte { return b.AppendEncode(make([]byte, 0, b.EncodedLen())) }

// EncodedLen returns len(Encode()) without materializing the encoding.
func (b *Bloom) EncodedLen() int { return 20 + 8*len(b.bits) }

// DecodeBloom parses an encoded filter, validating shape invariants (m a
// positive multiple of 64 matching the payload length, k in [1,16]).
func DecodeBloom(data []byte) (*Bloom, error) {
	if len(data) < 20 {
		return nil, fmt.Errorf("%w: bloom header truncated (%d bytes)", ErrCodec, len(data))
	}
	k := binary.BigEndian.Uint32(data)
	m := binary.BigEndian.Uint64(data[4:])
	n := binary.BigEndian.Uint64(data[12:])
	if k < 1 || k > 16 {
		return nil, fmt.Errorf("%w: bloom k=%d out of range", ErrCodec, k)
	}
	if m < 64 || m%64 != 0 || m > maxBloomBits {
		return nil, fmt.Errorf("%w: bloom m=%d invalid", ErrCodec, m)
	}
	if uint64(len(data)-20) != m/8 {
		return nil, fmt.Errorf("%w: bloom payload %d bytes, want %d", ErrCodec, len(data)-20, m/8)
	}
	if n > 1<<62 {
		// Keep the count inside int64 so arithmetic on it cannot overflow.
		return nil, fmt.Errorf("%w: bloom n=%d implausible", ErrCodec, n)
	}
	b := &Bloom{
		bits:   make([]uint64, m/64),
		k:      int(k),
		m:      m,
		hasher: packet.NewHasher(0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9),
		n:      int(n),
	}
	for i := range b.bits {
		b.bits[i] = binary.BigEndian.Uint64(data[20+8*i:])
	}
	return b, nil
}

// Merge ORs another filter of the same shape into b. The result represents
// the union of the two insertion multisets; n becomes the summed insertion
// count.
func (b *Bloom) Merge(o *Bloom) error {
	if !b.Compatible(o) {
		return fmt.Errorf("%w: merging incompatible blooms (m=%d/%d k=%d/%d)",
			ErrCodec, b.m, o.m, b.k, o.k)
	}
	for i := range b.bits {
		b.bits[i] |= o.bits[i]
	}
	b.n += o.n
	return nil
}

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

// DecodeFPSet parses an encoded fingerprint multiset. The encoding is
// canonical — strictly increasing fingerprints with positive counts — and
// the decoder rejects anything else, so Encode∘DecodeFPSet is the identity
// on valid input.
func DecodeFPSet(data []byte) (*FPSet, error) {
	if len(data)%12 != 0 {
		return nil, fmt.Errorf("%w: fpset length %d not a multiple of 12", ErrCodec, len(data))
	}
	s := NewFPSet()
	s.Grow(len(data) / 12)
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
	s.norm = len(s.fps)
	return s, nil
}

// Merge adds another multiset into s (multiplicities sum).
func (s *FPSet) Merge(o *FPSet) {
	s.normalise()
	o.normalise()
	s.lanes = mergeRuns(s.lanes, o.lanes)
	s.norm = len(s.fps)
	s.count += o.count
}
