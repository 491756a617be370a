package queue

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/summary"
)

type rec struct {
	fp   packet.Fingerprint
	size int32
	ts   time.Duration
	flow packet.FlowID
	tag  int32
}

func randRecs(rng *rand.Rand, n int) []rec {
	recs := make([]rec, n)
	for i := range recs {
		recs[i] = rec{
			fp:   packet.Fingerprint(rng.Uint64()),
			size: int32(rng.Intn(1500)),
			// Few distinct timestamps, so ties are common and stability
			// is actually exercised.
			ts:   time.Duration(rng.Intn(5)) * time.Millisecond,
			flow: packet.FlowID(rng.Intn(4)),
			tag:  int32(rng.Intn(3)),
		}
	}
	return recs
}

// TestStableSortByTS compares the lane sort against a reference stable sort
// of an array-of-structs copy, which pins the tie-break order.
func TestStableSortByTS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		recs := randRecs(rng, rng.Intn(40))
		var b PacketBatch
		for _, r := range recs {
			b.AppendTagged(r.fp, r.size, r.ts, r.flow, r.tag)
		}
		want := append([]rec(nil), recs...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].ts < want[j].ts })
		b.StableSortByTS()
		if b.Len() != len(want) {
			t.Fatalf("trial %d: len %d != %d", trial, b.Len(), len(want))
		}
		for i, w := range want {
			got := rec{b.FPs[i], b.Sizes[i], b.TSs[i], b.Flows[i], b.Tags[i]}
			if got != w {
				t.Fatalf("trial %d record %d: got %+v want %+v", trial, i, got, w)
			}
		}
	}
}

func TestTrimFront(t *testing.T) {
	var b PacketBatch
	for i := 0; i < 5; i++ {
		b.Append(packet.Fingerprint(i), int32(i), time.Duration(i), packet.FlowID(i))
	}
	b.TrimFront(2)
	if b.Len() != 3 || b.FPs[0] != 2 || b.TSs[2] != 4 {
		t.Fatalf("unexpected tail after TrimFront: %+v", b.FPs)
	}
	b.TrimFront(0)
	if b.Len() != 3 {
		t.Fatal("TrimFront(0) mutated the batch")
	}
	b.TrimFront(3)
	if b.Len() != 0 {
		t.Fatal("full trim left records behind")
	}
}

// TestAppendEncodeMatchesTimedFP pins the wire compatibility contract: a
// lane batch must encode byte-identically to the summary.TimedFP it
// replaced, so signed bodies are unchanged.
func TestAppendEncodeMatchesTimedFP(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	recs := randRecs(rng, 30)
	var b PacketBatch
	tf := summary.NewTimedFP()
	for _, r := range recs {
		b.Append(r.fp, r.size, r.ts, r.flow)
		tf.AddFlow(r.fp, int(r.size), r.ts, r.flow)
	}
	got := b.AppendEncode(nil)
	want := tf.AppendEncode(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding diverged from summary.TimedFP:\n got %x\nwant %x", got, want)
	}
	if b.EncodedLen() != len(got) {
		t.Fatalf("EncodedLen %d != %d", b.EncodedLen(), len(got))
	}
}

func TestAppendBatchAndReset(t *testing.T) {
	var a, b PacketBatch
	a.Append(1, 2, 3, 4)
	b.Append(5, 6, 7, 8)
	b.AppendBatch(&a)
	if b.Len() != 2 || b.FPs[1] != 1 {
		t.Fatalf("AppendBatch: %+v", b.FPs)
	}
	var tagged PacketBatch
	for i := range b.FPs {
		tagged.AppendTagged(b.FPs[i], b.Sizes[i], b.TSs[i], b.Flows[i], 9)
	}
	tagged.Reset()
	if tagged.Len() != 0 || len(tagged.Tags) != 0 {
		t.Fatal("Reset left records")
	}
}
