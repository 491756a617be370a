package packet

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// Every simulated packet is a Packet, served by the Arena 256 at a time: at
// 64 bytes one is a cache line. TTL sits beside Flags in the padding before
// Size; after Payload it cost a second 8-byte pad (72 bytes).
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(Packet{}) = %d, want 64", got)
	}
}

func samplePacket() *Packet {
	return &Packet{
		ID: 7, Src: 1, Dst: 9, Flow: 0xabc, Seq: 100, Ack: 50,
		Flags: FlagACK, Size: 1500, Payload: 0xdeadbeef, TTL: 64,
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	h := NewHasher(1, 2)
	p := samplePacket()
	if h.Fingerprint(p) != h.Fingerprint(p) {
		t.Fatal("fingerprint not deterministic")
	}
}

func TestFingerprintIgnoresTTL(t *testing.T) {
	h := NewHasher(1, 2)
	p := samplePacket()
	fp1 := h.Fingerprint(p)
	p.TTL = 3
	if got := h.Fingerprint(p); got != fp1 {
		t.Fatalf("fingerprint changed with TTL: %v vs %v", fp1, got)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	h := NewHasher(1, 2)
	base := samplePacket()
	fp := h.Fingerprint(base)

	mutations := map[string]func(*Packet){
		"ID":      func(p *Packet) { p.ID++ },
		"Src":     func(p *Packet) { p.Src++ },
		"Dst":     func(p *Packet) { p.Dst++ },
		"Flow":    func(p *Packet) { p.Flow++ },
		"Seq":     func(p *Packet) { p.Seq++ },
		"Ack":     func(p *Packet) { p.Ack++ },
		"Flags":   func(p *Packet) { p.Flags |= FlagSYN },
		"Size":    func(p *Packet) { p.Size++ },
		"Payload": func(p *Packet) { p.Payload++ },
	}
	for field, mutate := range mutations {
		q := base.Clone()
		mutate(q)
		if h.Fingerprint(q) == fp {
			t.Errorf("mutating %s did not change fingerprint", field)
		}
	}
}

func TestFingerprintKeyed(t *testing.T) {
	p := samplePacket()
	if NewHasher(1, 2).Fingerprint(p) == NewHasher(3, 4).Fingerprint(p) {
		t.Fatal("different keys produced identical fingerprints")
	}
}

func TestCloneIndependent(t *testing.T) {
	p := samplePacket()
	q := p.Clone()
	q.Payload = 1
	q.TTL = 1
	if p.Payload == q.Payload || p.TTL == q.TTL {
		t.Fatal("Clone is not independent of the original")
	}
}

func TestFlagString(t *testing.T) {
	cases := map[Flag]string{
		0:                 "-",
		FlagSYN:           "SYN",
		FlagSYN | FlagACK: "SYN|ACK",
		FlagFIN | FlagRST: "FIN|RST",
	}
	for f, want := range cases {
		if got := f.String(); got != want {
			t.Errorf("Flag(%d).String() = %q, want %q", f, got, want)
		}
	}
}

// Property: fingerprints behave injectively over random packet fields at
// test scale (no collisions among a few thousand random distinct packets).
func TestFingerprintCollisionResistance(t *testing.T) {
	h := NewHasher(11, 13)
	seen := make(map[Fingerprint]Packet)
	id := uint64(0)
	f := func(src, dst uint8, flow uint32, seq, ack uint32, payload uint64) bool {
		id++
		p := Packet{
			ID: id, Src: NodeID(src), Dst: NodeID(dst), Flow: FlowID(flow),
			Seq: seq, Ack: ack, Size: 1000, Payload: payload,
		}
		fp := h.Fingerprint(&p)
		if prev, ok := seen[fp]; ok {
			t.Logf("collision between %+v and %+v", prev, p)
			return false
		}
		seen[fp] = p
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestHashBytesDistribution(t *testing.T) {
	// Crude avalanche check: flipping one input bit flips roughly half the
	// output bits on average.
	h := NewHasher(5, 7)
	data := []byte("the quick brown fox jumps over the lazy dog")
	base := h.HashBytes(data)
	totalFlips := 0
	trials := 0
	for i := range data {
		for b := 0; b < 8; b++ {
			data[i] ^= 1 << b
			out := h.HashBytes(data)
			data[i] ^= 1 << b
			diff := base ^ out
			flips := 0
			for diff != 0 {
				flips += int(diff & 1)
				diff >>= 1
			}
			totalFlips += flips
			trials++
		}
	}
	avg := float64(totalFlips) / float64(trials)
	if avg < 24 || avg > 40 {
		t.Fatalf("poor avalanche: average %.1f bits flipped of 64", avg)
	}
}

func BenchmarkFingerprint(b *testing.B) {
	h := NewHasher(1, 2)
	p := samplePacket()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.Fingerprint(p)
	}
}
