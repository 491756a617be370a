// Package auth provides the cryptographic substrate the detection protocols
// assume (§2.1.5): a key-distribution authority, message authentication
// codes standing in for digital signatures, keyed fingerprint keys and
// per-pair sampling keys.
//
// The paper's negative result (Goldberg et al., §3.11) shows any Byzantine
// detection protocol needs a key infrastructure; this package is that
// infrastructure for the simulated network. Signatures are HMAC-SHA256 under
// per-router keys known to a verification authority that every correct
// router trusts — operationally equivalent to the administratively
// distributed keys or PKI the paper assumes, and implementable with the
// standard library alone.
package auth

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"

	"routerwatch/internal/packet"
)

// KeySize is the size in bytes of all symmetric keys.
const KeySize = 32

// Key is a symmetric key.
type Key [KeySize]byte

// Signature is an authentication tag over a message, attributable to a
// signer. It models the paper's [x]_i notation.
type Signature struct {
	Signer packet.NodeID
	Tag    [sha256.Size]byte
}

// String formats a short prefix of the tag for logs.
func (s Signature) String() string {
	return fmt.Sprintf("[%v:%x...]", s.Signer, s.Tag[:4])
}

// Authority is the administrative key-distribution service (§2.1.5: "the
// administrative ability to assign and distribute shared keys"). It issues
// per-router signing keys, fingerprint keys and per-pair sampling keys.
//
// Authority is safe for concurrent use.
//
// Signing and verification run on the simulator's per-message hot path,
// so the Authority never calls hmac.New per message: it precomputes each
// key's HMAC inner/outer pad digests once (macState) and restores them into
// a reusable scratch digest per operation. The scratch state is per-
// Authority — one Authority per simulated network, never global — so
// parallel trials stay independent and race-free.
type Authority struct {
	mu     sync.RWMutex
	master Key

	// signingSt caches each router's precomputed HMAC pad state, derived
	// lazily on first use.
	signingSt map[packet.NodeID]*macState

	// scratch is the reusable SHA-256 digest the pad states are restored
	// into; scratchU is the same digest's unmarshal view, asserted once.
	// sumBuf and outBuf receive the inner and outer hash sums so Sum never
	// allocates. All four are guarded by mu.
	scratch  hash.Hash
	scratchU encoding.BinaryUnmarshaler
	sumBuf   [sha256.Size]byte
	outBuf   [sha256.Size]byte

	// aggBuf is the fixed-size tag-chain scratch for AggregateTag (see
	// batch.go); guarded by mu like the other scratch state.
	aggBuf [64 * sha256.Size]byte
}

// sha256BlockSize is the HMAC block size for SHA-256 (the hash package
// exposes it only as a method on the digest).
const sha256BlockSize = 64

// macState is a key's HMAC-SHA256 pads absorbed into SHA-256 states: inner
// is the marshaled digest state after hashing key⊕ipad, outer after
// key⊕opad. Computing a MAC restores inner, hashes the message, then
// restores outer and hashes the inner sum — identical output to
// crypto/hmac, without a per-message hmac.New.
type macState struct {
	inner, outer []byte
}

func newMACState(k Key) *macState {
	var ipad, opad [sha256BlockSize]byte
	for i := range ipad {
		ipad[i] = 0x36
		opad[i] = 0x5c
	}
	for i, b := range k {
		ipad[i] ^= b
		opad[i] ^= b
	}
	d := sha256.New()
	d.Write(ipad[:])
	inner, err := d.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("auth: sha256 state not marshalable: " + err.Error())
	}
	d.Reset()
	d.Write(opad[:])
	outer, err := d.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("auth: sha256 state not marshalable: " + err.Error())
	}
	return &macState{inner: inner, outer: outer}
}

// macInto computes HMAC-SHA256(key(st), msg) into out. Callers must hold
// a.mu; the computation reuses the Authority's scratch digest and buffers,
// allocating nothing.
func (a *Authority) macInto(st *macState, msg []byte, out *[sha256.Size]byte) {
	if err := a.scratchU.UnmarshalBinary(st.inner); err != nil {
		panic("auth: sha256 state corrupt: " + err.Error())
	}
	a.scratch.Write(msg)
	innerSum := a.scratch.Sum(a.sumBuf[:0])
	if err := a.scratchU.UnmarshalBinary(st.outer); err != nil {
		panic("auth: sha256 state corrupt: " + err.Error())
	}
	a.scratch.Write(innerSum)
	a.scratch.Sum(out[:0])
}

// signingState returns (creating if needed) r's cached pad state. Callers
// must hold a.mu.
func (a *Authority) signingState(r packet.NodeID) *macState {
	st := a.signingSt[r]
	if st == nil {
		st = newMACState(a.derive("sign", uint64(uint32(r))))
		a.signingSt[r] = st
	}
	return st
}

type pairKey struct{ a, b packet.NodeID }

func orderedPair(a, b packet.NodeID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// NewAuthority creates an Authority whose entire key schedule derives
// deterministically from seed, so simulations are reproducible.
func NewAuthority(seed uint64) *Authority {
	var master Key
	binary.BigEndian.PutUint64(master[:8], seed)
	sum := sha256.Sum256(master[:])
	copy(master[:], sum[:])
	a := &Authority{
		master:    master,
		signingSt: make(map[packet.NodeID]*macState),
		scratch:   sha256.New(),
	}
	a.scratchU = a.scratch.(encoding.BinaryUnmarshaler)
	return a
}

func (a *Authority) derive(label string, parts ...uint64) Key {
	mac := hmac.New(sha256.New, a.master[:])
	mac.Write([]byte(label))
	var buf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(buf[:], p)
		mac.Write(buf[:])
	}
	var k Key
	copy(k[:], mac.Sum(nil))
	return k
}

// FingerprintKeys returns the two 64-bit keys for the network-wide packet
// fingerprint function. All routers use the same fingerprint keys so that
// summaries computed at different routers are comparable.
func (a *Authority) FingerprintKeys() (k0, k1 uint64) {
	k := a.derive("fingerprint")
	return binary.BigEndian.Uint64(k[:8]), binary.BigEndian.Uint64(k[8:16])
}

// SamplingKeys returns per-pair keys for hash-range sampling (§2.4.1,
// trajectory sampling): the pair (x, y) agree on a secret sampling function
// intermediate routers cannot predict.
func (a *Authority) SamplingKeys(x, y packet.NodeID) (k0, k1 uint64) {
	p := orderedPair(x, y)
	k := a.derive("sample", uint64(uint32(p.a)), uint64(uint32(p.b)))
	return binary.BigEndian.Uint64(k[:8]), binary.BigEndian.Uint64(k[8:16])
}

// Sign produces r's signature over msg. With r's pad state warmed (any
// prior Sign for r), a call allocates nothing.
func (a *Authority) Sign(r packet.NodeID, msg []byte) Signature {
	a.mu.Lock()
	a.macInto(a.signingState(r), msg, &a.outBuf)
	sig := Signature{Signer: r, Tag: a.outBuf}
	a.mu.Unlock()
	return sig
}

// Verify reports whether sig is a valid signature by sig.Signer over msg.
func (a *Authority) Verify(msg []byte, sig Signature) bool {
	a.mu.Lock()
	a.macInto(a.signingState(sig.Signer), msg, &a.outBuf)
	ok := hmac.Equal(a.outBuf[:], sig.Tag[:])
	a.mu.Unlock()
	return ok
}
