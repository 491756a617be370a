package summary

import (
	"encoding/binary"
	"errors"
	"fmt"

	"routerwatch/internal/packet"
)

// This file holds the wire codecs for the summaries that routers exchange:
// the reverse direction of the Encode methods. Decoders validate their
// input — a malicious router controls the bytes on the wire, so malformed
// input must yield an error, never a panic or an oversized allocation.

// ErrCodec reports malformed summary bytes.
var ErrCodec = errors.New("summary: malformed encoding")

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
