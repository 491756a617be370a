package auth

import (
	"crypto/hmac"
	"crypto/sha256"
	"testing"

	"routerwatch/internal/packet"
)

// TestMACMatchesCryptoHMAC pins the pad-state fast path to the reference
// implementation: restoring precomputed inner/outer SHA-256 states must
// produce bit-identical HMAC-SHA256 output for every key and message
// length, including the empty message and multi-block messages.
func TestMACMatchesCryptoHMAC(t *testing.T) {
	a := NewAuthority(11)
	for _, n := range []int{0, 1, 31, 32, 55, 56, 63, 64, 65, 127, 128, 1000} {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i * 7)
		}
		for r := packet.NodeID(0); r < 4; r++ {
			k := a.SigningKey(r)
			ref := hmac.New(sha256.New, k[:])
			ref.Write(msg)
			want := ref.Sum(nil)
			sig := a.Sign(r, msg)
			if !hmac.Equal(sig.Tag[:], want) {
				t.Fatalf("Sign(r=%d, len=%d) diverges from crypto/hmac", r, n)
			}
			// Repeat to exercise the warmed-state path.
			sig2 := a.Sign(r, msg)
			if sig2.Tag != sig.Tag {
				t.Fatalf("warmed Sign(r=%d, len=%d) not reproducible", r, n)
			}
		}
		pk := a.PairwiseKey(1, 2)
		ref := hmac.New(sha256.New, pk[:])
		ref.Write(msg)
		want := ref.Sum(nil)
		tag := a.MAC(1, 2, msg)
		if !hmac.Equal(tag[:], want) {
			t.Fatalf("MAC(len=%d) diverges from crypto/hmac", n)
		}
	}
}

func TestSignVerify(t *testing.T) {
	a := NewAuthority(1)
	msg := []byte("traffic summary round 7")
	sig := a.Sign(3, msg)
	if sig.Signer != 3 {
		t.Fatalf("signer = %v, want 3", sig.Signer)
	}
	if !a.Verify(msg, sig) {
		t.Fatal("valid signature rejected")
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	a := NewAuthority(1)
	msg := []byte("count=100")
	sig := a.Sign(3, msg)
	if a.Verify([]byte("count=999"), sig) {
		t.Fatal("tampered message accepted")
	}
}

func TestVerifyRejectsForgedSigner(t *testing.T) {
	a := NewAuthority(1)
	msg := []byte("count=100")
	sig := a.Sign(3, msg)
	sig.Signer = 4 // a faulty router claiming the report came from r4
	if a.Verify(msg, sig) {
		t.Fatal("signature attributed to wrong signer accepted")
	}
}

func TestPairwiseKeySymmetric(t *testing.T) {
	a := NewAuthority(9)
	if a.PairwiseKey(1, 2) != a.PairwiseKey(2, 1) {
		t.Fatal("pairwise key not symmetric")
	}
	if a.PairwiseKey(1, 2) == a.PairwiseKey(1, 3) {
		t.Fatal("distinct pairs share a key")
	}
}

func TestMACRoundTrip(t *testing.T) {
	a := NewAuthority(2)
	msg := []byte("hello")
	tag := a.MAC(1, 2, msg)
	if !a.VerifyMAC(2, 1, msg, tag) {
		t.Fatal("MAC did not verify under symmetric pair order")
	}
	if a.VerifyMAC(1, 3, msg, tag) {
		t.Fatal("MAC verified under wrong pair")
	}
}

func TestDeterministicAcrossAuthorities(t *testing.T) {
	a1, a2 := NewAuthority(5), NewAuthority(5)
	if a1.SigningKey(7) != a2.SigningKey(7) {
		t.Fatal("same-seed authorities derive different keys")
	}
	k0a, k1a := a1.FingerprintKeys()
	k0b, k1b := a2.FingerprintKeys()
	if k0a != k0b || k1a != k1b {
		t.Fatal("fingerprint keys differ across same-seed authorities")
	}
	b := NewAuthority(6)
	if a1.SigningKey(7) == b.SigningKey(7) {
		t.Fatal("different seeds derived identical keys")
	}
}

func TestSamplingKeysPerPair(t *testing.T) {
	a := NewAuthority(4)
	k0, k1 := a.SamplingKeys(2, 5)
	k0r, k1r := a.SamplingKeys(5, 2)
	if k0 != k0r || k1 != k1r {
		t.Fatal("sampling keys not symmetric in pair order")
	}
	k0o, k1o := a.SamplingKeys(2, 6)
	if k0 == k0o && k1 == k1o {
		t.Fatal("distinct pairs share sampling keys")
	}
}

// TestConcurrentKeyAccess is the -race coverage for Authority.mu: the key
// maps, and the scratch digest and sum buffers every Sign and Verify share.
func TestConcurrentKeyAccess(t *testing.T) {
	a := NewAuthority(8)
	msg := []byte("summary")
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 100; j++ {
				a.SigningKey(packet.NodeID(j % 10))
				a.PairwiseKey(packet.NodeID(i), packet.NodeID(j%10))
				if sig := a.Sign(packet.NodeID(i), msg); !a.Verify(msg, sig) {
					t.Errorf("r%d's signature does not verify", i)
				}
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

// TestWarmedMACAllocFree guards the tentpole property: once a key's pad
// state is warmed, Sign and MAC allocate nothing per call.
func TestWarmedMACAllocFree(t *testing.T) {
	a := NewAuthority(3)
	msg := make([]byte, 512)
	_ = a.Sign(1, msg)
	_ = a.MAC(1, 2, msg)
	if n := testing.AllocsPerRun(200, func() { _ = a.Sign(1, msg) }); n != 0 {
		t.Errorf("warmed Sign allocates %v per call, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = a.MAC(1, 2, msg) }); n != 0 {
		t.Errorf("warmed MAC allocates %v per call, want 0", n)
	}
	sig := a.Sign(1, msg)
	if n := testing.AllocsPerRun(200, func() { _ = a.Verify(msg, sig) }); n != 0 {
		t.Errorf("warmed Verify allocates %v per call, want 0", n)
	}
}

func BenchmarkSign(b *testing.B) {
	a := NewAuthority(1)
	msg := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Sign(1, msg)
	}
}
