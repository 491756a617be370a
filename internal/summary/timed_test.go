package summary

import (
	"encoding/hex"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"routerwatch/internal/packet"
)

// TestTimedFP pins the signed record layout — big-endian ⟨fp, size, ts,
// flow⟩ of 8, 4, 8 and 8 bytes — against literal bytes, and the decoder
// against the encoder.
func TestTimedFP(t *testing.T) {
	var tf TimedFP
	tf.Append(0x0102030405060708, 1500, 0x1112131415161718, 0x2122232425262728)
	tf.Append(9, -1, 0, 0)
	want := "0102030405060708" + "000005dc" + "1112131415161718" + "2122232425262728" +
		"0000000000000009" + "ffffffff" + "0000000000000000" + "0000000000000000"
	enc := tf.AppendEncode(nil)
	if got := hex.EncodeToString(enc); got != want {
		t.Fatalf("encoding\n got %s\nwant %s", got, want)
	}
	if tf.EncodedLen() != len(enc) || len(enc) != 2*TimedRecordLen {
		t.Fatalf("EncodedLen %d, encoding %d bytes", tf.EncodedLen(), len(enc))
	}
	dec, err := DecodeTimedFP(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dec.FPs, tf.FPs) || !slices.Equal(dec.Sizes, tf.Sizes) ||
		!slices.Equal(dec.TSs, tf.TSs) || !slices.Equal(dec.Flows, tf.Flows) {
		t.Fatalf("decoded %+v, want %+v", *dec, tf)
	}
	for _, n := range []int{1, TimedRecordLen - 1, TimedRecordLen + 1} {
		if _, err := DecodeTimedFP(enc[:n]); !errors.Is(err, ErrCodec) {
			t.Errorf("%d bytes decoded with error %v", n, err)
		}
	}
}

type rec struct {
	fp   packet.Fingerprint
	size int32
	ts   time.Duration
	flow packet.FlowID
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
		}
	}
	return recs
}

// TestStableSortByTS compares the lane sort against a reference stable sort
// of an array-of-structs copy, which pins the tie-break order: on batches
// of a χ round's size, where thousands of records share each of the five
// timestamps, and on 50 short ones.
func TestStableSortByTS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lens := []int{100, 1000, 4097}
	for range 50 {
		lens = append(lens, rng.Intn(40))
	}
	for trial, n := range lens {
		recs := randRecs(rng, n)
		var b TimedFP
		for _, r := range recs {
			b.Append(r.fp, r.size, r.ts, r.flow)
		}
		want := append([]rec(nil), recs...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].ts < want[j].ts })
		b.StableSortByTS()
		if b.Len() != len(want) {
			t.Fatalf("trial %d: len %d != %d", trial, b.Len(), len(want))
		}
		for i, w := range want {
			got := rec{b.FPs[i], b.Sizes[i], b.TSs[i], b.Flows[i]}
			if got != w {
				t.Fatalf("trial %d record %d: got %+v want %+v", trial, i, got, w)
			}
		}
	}
}

// TestTimedFPGrow: after Grow(n), n appends allocate nothing, and
// DecodeTimedFP allocates as much for a thousand records as for one — each
// lane once, at its final size.
func TestTimedFPGrow(t *testing.T) {
	const n = 1000
	var b TimedFP
	grow := func() {
		b = TimedFP{}
		b.Grow(n)
	}
	grown := testing.AllocsPerRun(10, grow)
	filled := testing.AllocsPerRun(10, func() {
		grow()
		for i := range n {
			b.Append(packet.Fingerprint(i), int32(i), time.Duration(i), packet.FlowID(i))
		}
	})
	if filled != grown {
		t.Errorf("%d appends after Grow(%d) allocated %v times, want 0", n, n, filled-grown)
	}
	decode := func(enc []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := DecodeTimedFP(enc); err != nil {
				t.Fatal(err)
			}
		})
	}
	enc := b.AppendEncode(nil)
	if one, all := decode(enc[:TimedRecordLen]), decode(enc); all != one {
		t.Errorf("DecodeTimedFP allocates %v times for %d records, %v for one", all, n, one)
	}
}

func TestTrimFront(t *testing.T) {
	var b TimedFP
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

func TestAppendBatchAndReset(t *testing.T) {
	var a, b TimedFP
	a.Append(1, 2, 3, 4)
	b.Append(5, 6, 7, 8)
	b.AppendBatch(&a)
	if b.Len() != 2 || b.FPs[1] != 1 || b.Flows[1] != 4 {
		t.Fatalf("AppendBatch: %+v", b)
	}
	b.Reset()
	if b.Len() != 0 || len(b.Sizes) != 0 || len(b.TSs) != 0 || len(b.Flows) != 0 {
		t.Fatal("Reset left records")
	}
}
