package queue

import (
	"encoding/binary"
	"sort"
	"time"

	"routerwatch/internal/packet"
)

// PacketBatch is a structure-of-arrays batch of packet records: the
// fingerprint, wire size, timestamp, and flow of each record live in
// parallel lanes rather than an array of structs. The validation hot paths
// (Protocol χ's reporters and queue replay) fill and drain these batches in
// tight per-lane loops: a scan that needs only timestamps touches only the
// timestamp lane, and encoding for signing streams each lane without
// materializing per-record structs.
//
// Tags is an optional caller-defined lane (χ stores the reporting neighbor
// there); it exists only when records were added with AppendTagged, and the
// two Append forms must not be mixed in one batch.
type PacketBatch struct {
	FPs   []packet.Fingerprint
	Sizes []int32
	TSs   []time.Duration
	Flows []packet.FlowID
	Tags  []int32

	// perm is the reusable index buffer behind StableSortByTS.
	perm []int
}

// Len returns the number of records.
func (b *PacketBatch) Len() int { return len(b.FPs) }

// Reset truncates all lanes, keeping their capacity.
func (b *PacketBatch) Reset() {
	b.FPs = b.FPs[:0]
	b.Sizes = b.Sizes[:0]
	b.TSs = b.TSs[:0]
	b.Flows = b.Flows[:0]
	b.Tags = b.Tags[:0]
}

// Append adds one record.
func (b *PacketBatch) Append(fp packet.Fingerprint, size int32, ts time.Duration, flow packet.FlowID) {
	b.FPs = append(b.FPs, fp)
	b.Sizes = append(b.Sizes, size)
	b.TSs = append(b.TSs, ts)
	b.Flows = append(b.Flows, flow)
}

// AppendTagged adds one record with a caller-defined tag.
func (b *PacketBatch) AppendTagged(fp packet.Fingerprint, size int32, ts time.Duration, flow packet.FlowID, tag int32) {
	b.Append(fp, size, ts, flow)
	b.Tags = append(b.Tags, tag)
}

// AppendRecord copies record i of src, carrying src's tag when present.
func (b *PacketBatch) AppendRecord(src *PacketBatch, i int) {
	if len(src.Tags) > 0 {
		b.AppendTagged(src.FPs[i], src.Sizes[i], src.TSs[i], src.Flows[i], src.Tags[i])
		return
	}
	b.Append(src.FPs[i], src.Sizes[i], src.TSs[i], src.Flows[i])
}

// AppendBatch bulk-appends every record of src, untagged.
func (b *PacketBatch) AppendBatch(src *PacketBatch) {
	b.FPs = append(b.FPs, src.FPs...)
	b.Sizes = append(b.Sizes, src.Sizes...)
	b.TSs = append(b.TSs, src.TSs...)
	b.Flows = append(b.Flows, src.Flows...)
}

// swapIdx exchanges records i and j across all present lanes.
func (b *PacketBatch) swapIdx(i, j int) {
	b.FPs[i], b.FPs[j] = b.FPs[j], b.FPs[i]
	b.Sizes[i], b.Sizes[j] = b.Sizes[j], b.Sizes[i]
	b.TSs[i], b.TSs[j] = b.TSs[j], b.TSs[i]
	b.Flows[i], b.Flows[j] = b.Flows[j], b.Flows[i]
	if len(b.Tags) > 0 {
		b.Tags[i], b.Tags[j] = b.Tags[j], b.Tags[i]
	}
}

// StableSortByTS sorts the batch by timestamp, preserving the relative
// order of equal timestamps — the same tie-break a stable sort of an
// array-of-structs batch would produce, which matters because replay
// classification at equal virtual times is part of the determinism
// contract. The sort permutes an index buffer, then applies the permutation
// across the lanes in place by cycle-following, so no lane is copied.
func (b *PacketBatch) StableSortByTS() {
	n := b.Len()
	if n < 2 {
		return
	}
	if cap(b.perm) < n {
		b.perm = make([]int, n)
	}
	order := b.perm[:n]
	for i := range order {
		order[i] = i
	}
	ts := b.TSs
	sort.SliceStable(order, func(i, j int) bool { return ts[order[i]] < ts[order[j]] })
	for i, src := range order {
		for src < i {
			src = order[src]
		}
		if src != i {
			b.swapIdx(i, src)
		}
	}
}

// TrimFront drops the first n records, shifting the remainder down in
// place (the unprocessed tail of a replay horizon carries over to the next
// round).
func (b *PacketBatch) TrimFront(n int) {
	if n <= 0 {
		return
	}
	m := copy(b.FPs, b.FPs[n:])
	b.FPs = b.FPs[:m]
	b.Sizes = b.Sizes[:copy(b.Sizes, b.Sizes[n:])]
	b.TSs = b.TSs[:copy(b.TSs, b.TSs[n:])]
	b.Flows = b.Flows[:copy(b.Flows, b.Flows[n:])]
	if len(b.Tags) > 0 {
		b.Tags = b.Tags[:copy(b.Tags, b.Tags[n:])]
	}
}

// AppendEncode appends the batch's canonical record encoding — the same
// 28-byte ⟨fp, size, ts, flow⟩ layout as summary.TimedFP, so a lane batch
// signs identically to the struct form it replaced. Tags are a local
// bookkeeping lane and never encoded.
func (b *PacketBatch) AppendEncode(dst []byte) []byte {
	for i := range b.FPs {
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.FPs[i]))
		dst = binary.BigEndian.AppendUint32(dst, uint32(b.Sizes[i]))
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.TSs[i]))
		dst = binary.BigEndian.AppendUint64(dst, uint64(b.Flows[i]))
	}
	return dst
}

// EncodedLen returns len of AppendEncode's output without materializing it.
func (b *PacketBatch) EncodedLen() int { return 28 * b.Len() }
