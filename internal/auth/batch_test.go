package auth

import (
	"math/rand"
	"testing"

	"routerwatch/internal/packet"
)

// randBodies generates n bodies of varied sizes from rng.
func randBodies(rng *rand.Rand, n int) [][]byte {
	bodies := make([][]byte, n)
	for i := range bodies {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		bodies[i] = b
	}
	return bodies
}

// TestSignBatchMatchesSign asserts the batched signer is byte-identical to
// the per-message path.
func TestSignBatchMatchesSign(t *testing.T) {
	a := NewAuthority(7)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		r := packet.NodeID(rng.Intn(5))
		bodies := randBodies(rng, rng.Intn(10))
		sigs := a.SignBatch(r, bodies, nil)
		if len(sigs) != len(bodies) {
			t.Fatalf("got %d signatures for %d bodies", len(sigs), len(bodies))
		}
		for i, body := range bodies {
			if want := a.Sign(r, body); sigs[i] != want {
				t.Fatalf("trial %d body %d: SignBatch %v != Sign %v", trial, i, sigs[i], want)
			}
		}
	}
}

// TestAggregateTag covers the round trip and every tamper class the
// aggregate must reject: a mutated body, swapped order, a dropped or added
// item, a wrong signer, and tampering across the chain-fold boundary.
func TestAggregateTag(t *testing.T) {
	a := NewAuthority(7)
	rng := rand.New(rand.NewSource(3))
	// Sizes straddle the aggregateChainLen fold boundary (64 tags).
	for _, n := range []int{0, 1, 2, 63, 64, 65, 130} {
		bodies := randBodies(rng, n)
		sig := a.AggregateTag(3, bodies)
		if !a.VerifyAggregate(bodies, sig) {
			t.Fatalf("n=%d: round trip failed", n)
		}
		if sig2 := a.AggregateTag(3, bodies); sig2 != sig {
			t.Fatalf("n=%d: aggregate not deterministic", n)
		}
		if a.VerifyAggregate(bodies, Signature{Signer: 4, Tag: sig.Tag}) {
			t.Fatalf("n=%d: accepted under wrong signer", n)
		}
		if a.VerifyAggregate(append(append([][]byte{}, bodies...), []byte("x")), sig) {
			t.Fatalf("n=%d: accepted with extra item", n)
		}
		if n > 0 {
			if a.VerifyAggregate(bodies[:n-1], sig) {
				t.Fatalf("n=%d: accepted with dropped item", n)
			}
			i := rng.Intn(n)
			mutated := append([][]byte{}, bodies...)
			mutated[i] = append([]byte{0xaa}, mutated[i]...)
			if a.VerifyAggregate(mutated, sig) {
				t.Fatalf("n=%d: accepted mutated item %d", n, i)
			}
		}
		if n > 1 {
			swapped := append([][]byte{}, bodies...)
			i := rng.Intn(n - 1)
			swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
			// Adjacent equal bodies swap to an identical sequence; only
			// distinct swaps must be rejected.
			if string(swapped[i]) != string(swapped[i+1]) && a.VerifyAggregate(swapped, sig) {
				t.Fatalf("n=%d: accepted reordered items", n)
			}
		}
	}
}

// TestAggregateTagDistinguishesSplits asserts the aggregate binds item
// boundaries: the same concatenated bytes split differently must not
// collide (the count binding plus per-item MACs).
func TestAggregateTagDistinguishesSplits(t *testing.T) {
	a := NewAuthority(7)
	msg := []byte("abcdef")
	one := a.AggregateTag(1, [][]byte{msg})
	two := a.AggregateTag(1, [][]byte{msg[:3], msg[3:]})
	if one == two {
		t.Fatal("aggregate collides across item splits")
	}
}

// TestAggregateAllocFree: with the signer's pad state warmed, AggregateTag
// and VerifyAggregate allocate nothing, across the chain-fold boundary too —
// the tag is computed into the Authority's scratch and returned by value.
func TestAggregateAllocFree(t *testing.T) {
	a := NewAuthority(7)
	bodies := randBodies(rand.New(rand.NewSource(5)), 130)
	sig := a.AggregateTag(2, bodies)
	if n := testing.AllocsPerRun(100, func() { _ = a.AggregateTag(2, bodies) }); n != 0 {
		t.Errorf("warmed AggregateTag allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = a.VerifyAggregate(bodies, sig) }); n != 0 {
		t.Errorf("warmed VerifyAggregate allocates %v per call, want 0", n)
	}
}
