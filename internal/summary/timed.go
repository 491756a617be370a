package summary

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"routerwatch/internal/packet"
)

// TimedRecordLen is the encoded size of one TimedFP record: the big-endian
// ⟨fp, size, ts, flow⟩ fields of 8, 4, 8 and 8 bytes.
const TimedRecordLen = 28

// TimedFP is the conservation-of-timeliness summary (§2.4.1: "ordered list
// of packet fingerprints associated with timestamps") and Protocol χ's
// Tinfo(r, Qdir, π, τ): one record per packet of its fingerprint, size, the
// time it entered or exited the monitored queue (§6.2.1's ⟨fp, ps, ts⟩
// triples), and the flow it belongs to (for per-flow drop attribution).
//
// The records live in parallel lanes rather than an array of structs. χ's
// reporters and queue replay fill and drain them in tight per-lane loops: a
// scan that needs only timestamps touches only the timestamp lane, and
// encoding for signing streams each lane without materializing per-record
// structs. The zero value is empty.
type TimedFP struct {
	FPs   []packet.Fingerprint
	Sizes []int32
	TSs   []time.Duration
	Flows []packet.FlowID

	// perm is the reusable index buffer behind StableSortByTS.
	perm []int
}

// Len returns the number of records.
func (t *TimedFP) Len() int { return len(t.FPs) }

// Reset truncates all lanes, keeping their capacity.
func (t *TimedFP) Reset() {
	t.FPs = t.FPs[:0]
	t.Sizes = t.Sizes[:0]
	t.TSs = t.TSs[:0]
	t.Flows = t.Flows[:0]
}

// Grow makes room for n more records in every lane, so the next n appends
// allocate nothing.
func (t *TimedFP) Grow(n int) {
	t.FPs = slices.Grow(t.FPs, n)
	t.Sizes = slices.Grow(t.Sizes, n)
	t.TSs = slices.Grow(t.TSs, n)
	t.Flows = slices.Grow(t.Flows, n)
}

// Append adds one record.
func (t *TimedFP) Append(fp packet.Fingerprint, size int32, ts time.Duration, flow packet.FlowID) {
	t.FPs = append(t.FPs, fp)
	t.Sizes = append(t.Sizes, size)
	t.TSs = append(t.TSs, ts)
	t.Flows = append(t.Flows, flow)
}

// AppendRecord copies record i of src.
func (t *TimedFP) AppendRecord(src *TimedFP, i int) {
	t.Append(src.FPs[i], src.Sizes[i], src.TSs[i], src.Flows[i])
}

// AppendBatch bulk-appends every record of src.
func (t *TimedFP) AppendBatch(src *TimedFP) {
	t.FPs = append(t.FPs, src.FPs...)
	t.Sizes = append(t.Sizes, src.Sizes...)
	t.TSs = append(t.TSs, src.TSs...)
	t.Flows = append(t.Flows, src.Flows...)
}

// swapIdx exchanges records i and j across all lanes.
func (t *TimedFP) swapIdx(i, j int) {
	t.FPs[i], t.FPs[j] = t.FPs[j], t.FPs[i]
	t.Sizes[i], t.Sizes[j] = t.Sizes[j], t.Sizes[i]
	t.TSs[i], t.TSs[j] = t.TSs[j], t.TSs[i]
	t.Flows[i], t.Flows[j] = t.Flows[j], t.Flows[i]
}

// StableSortByTS sorts the records by timestamp, preserving the relative
// order of equal timestamps — the same tie-break a stable sort of an
// array of structs would produce, which matters because replay
// classification at equal virtual times is part of the determinism
// contract. The sort permutes an index buffer, then applies the permutation
// across the lanes in place by cycle-following, so no lane is copied.
func (t *TimedFP) StableSortByTS() {
	n := t.Len()
	if n < 2 {
		return
	}
	if cap(t.perm) < n {
		t.perm = make([]int, n)
	}
	order := t.perm[:n]
	for i := range order {
		order[i] = i
	}
	ts := t.TSs
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(ts[i], ts[j]) })
	for i, src := range order {
		for src < i {
			src = order[src]
		}
		if src != i {
			t.swapIdx(i, src)
		}
	}
}

// TrimFront drops the first n records, shifting the remainder down in
// place (the unprocessed tail of a replay horizon carries over to the next
// round).
func (t *TimedFP) TrimFront(n int) {
	if n <= 0 {
		return
	}
	t.FPs = t.FPs[:copy(t.FPs, t.FPs[n:])]
	t.Sizes = t.Sizes[:copy(t.Sizes, t.Sizes[n:])]
	t.TSs = t.TSs[:copy(t.TSs, t.TSs[n:])]
	t.Flows = t.Flows[:copy(t.Flows, t.Flows[n:])]
}

// AppendEncode appends the records, TimedRecordLen bytes each, to b and
// returns the extended slice.
func (t *TimedFP) AppendEncode(b []byte) []byte {
	for i := range t.FPs {
		b = binary.BigEndian.AppendUint64(b, uint64(t.FPs[i]))
		b = binary.BigEndian.AppendUint32(b, uint32(t.Sizes[i]))
		b = binary.BigEndian.AppendUint64(b, uint64(t.TSs[i]))
		b = binary.BigEndian.AppendUint64(b, uint64(t.Flows[i]))
	}
	return b
}

// EncodedLen returns len of AppendEncode's output without materializing it.
func (t *TimedFP) EncodedLen() int { return TimedRecordLen * t.Len() }

// DecodeTimedFP parses an AppendEncode output. Every field value is valid,
// so any whole number of records decodes and re-encodes to the same bytes.
func DecodeTimedFP(data []byte) (*TimedFP, error) {
	if len(data)%TimedRecordLen != 0 {
		return nil, fmt.Errorf("%w: timed length %d not a multiple of %d", ErrCodec, len(data), TimedRecordLen)
	}
	t := &TimedFP{}
	t.Grow(len(data) / TimedRecordLen)
	for i := 0; i < len(data); i += TimedRecordLen {
		t.Append(
			packet.Fingerprint(binary.BigEndian.Uint64(data[i:])),
			int32(binary.BigEndian.Uint32(data[i+8:])),
			time.Duration(binary.BigEndian.Uint64(data[i+12:])),
			packet.FlowID(binary.BigEndian.Uint64(data[i+20:])),
		)
	}
	return t, nil
}
