// Package packet models network packets and the invariant-field fingerprints
// the detection protocols compute over them.
//
// A fingerprint is a short one-way digest of the parts of a packet that do
// not legitimately change in flight. Mutable IP header fields (TTL, header
// checksum) are excluded, following §7.4.2 of the paper: a router one hop
// downstream must compute the same fingerprint as the router one hop
// upstream, otherwise traffic validation by content is impossible.
//
// Fragmentation (§7.4.4) is not modeled: fragments would invalidate
// upstream-computed fingerprints, and the paper concludes reassembly at
// interior routers is impractical — real deployments rely on path-MTU
// discovery keeping transit fragmentation rare.
package packet

import (
	"encoding/binary"
	"fmt"
	"time"
)

// NodeID identifies a router in the network. IDs are small dense integers
// assigned by the topology.
type NodeID int32

// String formats the node ID as rN.
func (n NodeID) String() string { return fmt.Sprintf("r%d", int32(n)) }

// FlowID identifies a transport flow (the 5-tuple in a real network).
type FlowID uint64

// Flag bits carried by a packet, mirroring the TCP flags the experiments
// care about.
type Flag uint8

// Packet flag values.
const (
	FlagSYN Flag = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
)

// Has reports whether all bits in mask are set.
func (f Flag) Has(mask Flag) bool { return f&mask == mask }

// String renders the set flags, e.g. "SYN|ACK".
func (f Flag) String() string {
	if f == 0 {
		return "-"
	}
	s := ""
	add := func(name string) {
		if s != "" {
			s += "|"
		}
		s += name
	}
	if f.Has(FlagSYN) {
		add("SYN")
	}
	if f.Has(FlagACK) {
		add("ACK")
	}
	if f.Has(FlagFIN) {
		add("FIN")
	}
	if f.Has(FlagRST) {
		add("RST")
	}
	return s
}

// Packet is a simulated IP packet. The immutable identification fields
// (ID, Src, Dst, Flow, Seq, Flags, Payload) enter the fingerprint; the
// mutable fields (TTL) and bookkeeping (timestamps) do not.
type Packet struct {
	// ID is unique per packet within a simulation run. Retransmissions of
	// the same TCP segment get fresh IDs but the same Flow/Seq, mirroring
	// distinct wire packets with identical transport content.
	ID uint64

	Src  NodeID
	Dst  NodeID
	Flow FlowID
	Seq  uint32
	Ack  uint32

	Flags Flag

	// TTL decrements per hop and is excluded from the fingerprint. It sits
	// beside Flags, in the padding before Size, which keeps Packet at 64
	// bytes (TestPacketSize).
	TTL uint8

	// pooled marks a packet an Arena handed out and has not taken back.
	// It shares TTL's padding, so Packet stays 64 bytes.
	pooled bool

	// Size is the wire size in bytes (headers + payload).
	Size int

	// Payload is a compact stand-in for packet contents; a corrupting
	// router changes it, which changes the fingerprint.
	Payload uint64

	// SentAt is the virtual time the packet was first transmitted by its
	// source; used for end-to-end latency metrics only.
	SentAt time.Duration
}

// Clone returns a copy of the packet. Routers that modify packets (either
// legitimately, e.g. TTL, or maliciously) operate on their own copy. The
// copy belongs to the caller: it is never pooled, whatever the original.
func (p *Packet) Clone() *Packet {
	q := *p
	q.pooled = false
	return &q
}

// arenaChunk is the Arena allocation granularity. Packet is pointer-free,
// so a chunk is never scanned by the collector.
const arenaChunk = 256

// Arena is a packet pool. New hands out a zeroed Packet, reusing one that
// Free took back if there is any and otherwise carving it from a chunk of
// arenaChunk packets, so one heap allocation serves a chunk and a run's
// packet memory scales with the packets alive at once, not with every
// packet it ever sent. Free takes back only packets an Arena handed out (a
// packet built as a literal or by Clone is never reused), and only once:
// it clears the pooled mark, so a second Free of the same packet is a
// no-op and a packet is never handed out twice.
//
// Whoever frees a packet decides its lifetime: a pointer kept past the Free
// sees the packet zeroed and refilled by a later New. network.Network owns
// the one pool of a simulation and frees a packet after its last event.
//
// The free list is LIFO and an Arena is single-goroutine, like the
// scheduler that drives its callers, so which packet New returns is a pure
// function of the call sequence.
type Arena struct {
	chunk []Packet
	free  []*Packet
}

// New returns a pointer to a zeroed pooled Packet.
func (a *Arena) New() *Packet {
	var p *Packet
	if n := len(a.free); n > 0 {
		p = a.free[n-1]
		a.free = a.free[:n-1]
		*p = Packet{}
	} else {
		if len(a.chunk) == 0 {
			a.chunk = make([]Packet, arenaChunk)
		}
		p = &a.chunk[0]
		a.chunk = a.chunk[1:]
	}
	p.pooled = true
	return p
}

// Free hands p back for reuse if an Arena handed it out and it has not
// been freed since; otherwise it does nothing.
func (a *Arena) Free(p *Packet) {
	if !p.pooled {
		return
	}
	p.pooled = false
	a.free = append(a.free, p)
}

// Fingerprint is a 64-bit keyed digest of a packet's invariant content.
// Sixty-four bits keeps summary state compact (the paper's Fatih prototype
// used 64-bit UHASH outputs) while making accidental collisions negligible
// at experiment scale.
type Fingerprint uint64

// String formats the fingerprint as fixed-width hex.
func (f Fingerprint) String() string { return fmt.Sprintf("%016x", uint64(f)) }

// invariantBytes serializes exactly the fields that are stable end to end.
func (p *Packet) invariantBytes(buf *[44]byte) []byte {
	b := buf[:]
	binary.BigEndian.PutUint64(b[0:], p.ID)
	binary.BigEndian.PutUint32(b[8:], uint32(p.Src))
	binary.BigEndian.PutUint32(b[12:], uint32(p.Dst))
	binary.BigEndian.PutUint64(b[16:], uint64(p.Flow))
	binary.BigEndian.PutUint32(b[24:], p.Seq)
	binary.BigEndian.PutUint32(b[28:], p.Ack)
	b[32] = byte(p.Flags)
	b[33] = 0 // reserved; TTL deliberately excluded
	binary.BigEndian.PutUint16(b[34:], uint16(p.Size))
	binary.BigEndian.PutUint64(b[36:], p.Payload)
	return b
}

// Hasher computes keyed packet fingerprints. It is a stand-in for the UHASH
// universal hash used by the Fatih prototype: fast, keyed, and one-way
// enough for traffic validation (an adversary without the key cannot craft
// a second packet with a chosen fingerprint).
//
// The construction is a SipHash-like ARX permutation over the invariant
// packet fields. The zero Hasher uses a zero key, which is valid but offers
// no secrecy; use NewHasher with distributed keys in adversarial settings.
type Hasher struct {
	k0, k1 uint64
}

// NewHasher returns a Hasher keyed with (k0, k1).
func NewHasher(k0, k1 uint64) Hasher { return Hasher{k0: k0, k1: k1} }

// Fingerprint computes the keyed fingerprint of p's invariant fields.
func (h Hasher) Fingerprint(p *Packet) Fingerprint {
	var buf [44]byte
	b := p.invariantBytes(&buf)
	return Fingerprint(sipLike(h.k0, h.k1, b))
}

// sipLike is a 2-4 round ARX hash in the style of SipHash. It is
// implemented locally because the module is stdlib-only; the detection
// protocols need speed and keyed unpredictability, not NIST certification.
func sipLike(k0, k1 uint64, data []byte) uint64 {
	v0 := k0 ^ 0x736f6d6570736575
	v1 := k1 ^ 0x646f72616e646f6d
	v2 := k0 ^ 0x6c7967656e657261
	v3 := k1 ^ 0x7465646279746573

	round := func() {
		v0 += v1
		v1 = v1<<13 | v1>>51
		v1 ^= v0
		v0 = v0<<32 | v0>>32
		v2 += v3
		v3 = v3<<16 | v3>>48
		v3 ^= v2
		v0 += v3
		v3 = v3<<21 | v3>>43
		v3 ^= v0
		v2 += v1
		v1 = v1<<17 | v1>>47
		v1 ^= v2
		v2 = v2<<32 | v2>>32
	}

	n := len(data)
	i := 0
	for ; i+8 <= n; i += 8 {
		m := binary.LittleEndian.Uint64(data[i:])
		v3 ^= m
		round()
		round()
		v0 ^= m
	}
	var last uint64 = uint64(n) << 56
	for j := 0; i+j < n; j++ {
		last |= uint64(data[i+j]) << (8 * uint(j))
	}
	v3 ^= last
	round()
	round()
	v0 ^= last
	v2 ^= 0xff
	round()
	round()
	round()
	round()
	return v0 ^ v1 ^ v2 ^ v3
}

// HashBytes exposes the keyed hash over raw bytes for other packages
// (sampling ranges, report MACs over serialized summaries).
func (h Hasher) HashBytes(data []byte) uint64 { return sipLike(h.k0, h.k1, data) }
