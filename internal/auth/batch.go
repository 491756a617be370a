package auth

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"

	"routerwatch/internal/packet"
)

// Batched signing and aggregate verification. The per-message Sign pays a
// lock acquisition and a signer pad-state lookup per call; SignBatch holds
// the lock once and reuses the resolved pad state for every body of a set
// signed at once, O(1) setup instead of O(messages). Πk+2 does not use it:
// it signs each summary with Sign as it encodes it, so its signing buffer
// holds one body, not a round boundary's worth.

// SignBatch signs each body under r's key and appends the signatures to
// dst (pass nil to allocate). One locked pass with one pad-state
// resolution, byte-identical to calling Sign per body.
func (a *Authority) SignBatch(r packet.NodeID, bodies [][]byte, dst []Signature) []Signature {
	a.mu.Lock()
	st := a.signingState(r)
	for _, body := range bodies {
		a.macInto(st, body, &a.outBuf)
		dst = append(dst, Signature{Signer: r, Tag: a.outBuf})
	}
	a.mu.Unlock()
	return dst
}

// AggregateTag computes one signature covering an ordered sequence of
// bodies: tag_i = HMAC_r(body_i), aggregate = HMAC_r(tag_1 ‖ … ‖ tag_n) — a
// MAC over MACs. A k-part summary then travels with a single constant-size
// signature, and the verifier performs exactly one tag comparison
// regardless of k.
//
// Security argument: HMAC-SHA256 is a PRF under r's key, so each inner tag
// is unforgeable without the key, and the outer MAC binds the tag sequence
// — its length, order, and every element. Accepting a forged or reordered
// body list therefore requires either forging an inner HMAC over a new body
// or finding a second tag concatenation with the same outer HMAC; both
// reduce to breaking the PRF. The empty sequence is the outer MAC of the
// empty string, which still binds signer and count.
func (a *Authority) AggregateTag(r packet.NodeID, bodies [][]byte) Signature {
	a.mu.Lock()
	sig := Signature{Signer: r, Tag: a.aggregateInto(a.signingState(r), bodies)}
	a.mu.Unlock()
	return sig
}

// VerifyAggregate checks an AggregateTag signature over bodies: one
// constant-size comparison after recomputing the tag chain.
func (a *Authority) VerifyAggregate(bodies [][]byte, sig Signature) bool {
	a.mu.Lock()
	want := a.aggregateInto(a.signingState(sig.Signer), bodies)
	a.mu.Unlock()
	return hmac.Equal(want[:], sig.Tag[:])
}

// aggregateInto computes the MAC-over-MACs tag into the Authority's outBuf
// and returns it by value, so neither caller's tag escapes to the heap.
// Callers must hold a.mu. The inner tags stream through a fixed-size chain
// buffer chunked to bound scratch growth: per batch the chain holds at most
// aggregateChainLen tags before being folded, so aggregation over any batch
// size uses O(1) space.
func (a *Authority) aggregateInto(st *macState, bodies [][]byte) [sha256.Size]byte {
	chain := a.aggBuf[:0]
	for _, body := range bodies {
		a.macInto(st, body, &a.outBuf)
		chain = append(chain, a.outBuf[:]...)
		if len(chain) == cap(a.aggBuf) {
			// Fold a full chain segment into one tag so the scratch stays
			// fixed-size; the fold preserves order binding (it is itself a
			// MAC over the ordered segment).
			a.macInto(st, chain, &a.outBuf)
			chain = append(chain[:0], a.outBuf[:]...)
		}
	}
	// Bind the body count explicitly: with folding, a literal chain whose
	// first tag happened to equal a fold result could otherwise alias a
	// longer sequence.
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(bodies)))
	chain = append(chain, n[:]...)
	a.macInto(st, chain, &a.outBuf)
	return a.outBuf
}
