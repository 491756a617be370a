package summary

import (
	"encoding/binary"
	"fmt"
	"sort"

	"routerwatch/internal/packet"
)

// refFPSet is the map-backed FPSet as it stood before the flat-lane rewrite
// (ISSUE 19), kept verbatim — only the names changed — as the oracle
// FuzzFPSetMatchesReference and TestFPSetDiff compare the lanes against.
// Diff survives only here: its one non-test caller took len() of both
// results, which is DiffCounts.
type refFPSet struct {
	m     map[packet.Fingerprint]int
	count int
}

func newRefFPSet() *refFPSet { return &refFPSet{m: make(map[packet.Fingerprint]int)} }

func (s *refFPSet) Add(fp packet.Fingerprint) {
	s.m[fp]++
	s.count++
}

func (s *refFPSet) Len() int { return s.count }

func (s *refFPSet) Count(fp packet.Fingerprint) int { return s.m[fp] }

func (s *refFPSet) Diff(o *refFPSet) (onlyS, onlyO []packet.Fingerprint) {
	for fp, n := range s.m {
		if d := n - o.m[fp]; d > 0 {
			for i := 0; i < d; i++ {
				onlyS = append(onlyS, fp)
			}
		}
	}
	for fp, n := range o.m {
		if d := n - s.m[fp]; d > 0 {
			for i := 0; i < d; i++ {
				onlyO = append(onlyO, fp)
			}
		}
	}
	refSortFPs(onlyS)
	refSortFPs(onlyO)
	return onlyS, onlyO
}

func (s *refFPSet) DiffCounts(o *refFPSet) (onlyS, onlyO int) {
	for fp, n := range s.m {
		if d := n - o.m[fp]; d > 0 {
			onlyS += d
		}
	}
	for fp, n := range o.m {
		if d := n - s.m[fp]; d > 0 {
			onlyO += d
		}
	}
	return onlyS, onlyO
}

func (s *refFPSet) Fingerprints() []packet.Fingerprint {
	out := make([]packet.Fingerprint, 0, len(s.m))
	for fp := range s.m {
		out = append(out, fp)
	}
	refSortFPs(out)
	return out
}

func (s *refFPSet) AppendEncode(b []byte) []byte {
	for _, fp := range s.Fingerprints() {
		b = binary.BigEndian.AppendUint64(b, uint64(fp))
		b = binary.BigEndian.AppendUint32(b, uint32(s.m[fp]))
	}
	return b
}

func (s *refFPSet) Encode() []byte { return s.AppendEncode(make([]byte, 0, s.EncodedLen())) }

func (s *refFPSet) EncodedLen() int { return 12 * len(s.m) }

func refSortFPs(fps []packet.Fingerprint) {
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
}

func refDecodeFPSet(data []byte) (*refFPSet, error) {
	if len(data)%12 != 0 {
		return nil, fmt.Errorf("%w: fpset length %d not a multiple of 12", ErrCodec, len(data))
	}
	s := newRefFPSet()
	var prev packet.Fingerprint
	for i := 0; i < len(data); i += 12 {
		fp := packet.Fingerprint(binary.BigEndian.Uint64(data[i:]))
		n := binary.BigEndian.Uint32(data[i+8:])
		if n == 0 {
			return nil, fmt.Errorf("%w: fpset zero count for %x", ErrCodec, uint64(fp))
		}
		if i > 0 && fp <= prev {
			return nil, fmt.Errorf("%w: fpset fingerprints not strictly increasing", ErrCodec)
		}
		prev = fp
		s.m[fp] = int(n)
		s.count += int(n)
	}
	return s, nil
}

// refReorderAmount is ReorderAmount as it stood while it filtered the common
// multiset and mapped positions through five fingerprint-keyed maps, kept
// verbatim as TestReorderAmountMatchesReference's oracle.
func refReorderAmount(sent, received *OrderedFP) int {
	// Common multiset filter.
	counts := make(map[packet.Fingerprint]int)
	for _, fp := range sent.seq {
		counts[fp]++
	}
	recvCommon := make([]packet.Fingerprint, 0, len(received.seq))
	rCounts := make(map[packet.Fingerprint]int)
	for _, fp := range received.seq {
		if rCounts[fp] < counts[fp] {
			rCounts[fp]++
			recvCommon = append(recvCommon, fp)
		}
	}
	sentCommon := make([]packet.Fingerprint, 0, len(sent.seq))
	sCounts := make(map[packet.Fingerprint]int)
	for _, fp := range sent.seq {
		if sCounts[fp] < rCounts[fp] {
			sCounts[fp]++
			sentCommon = append(sentCommon, fp)
		}
	}

	// Positions of each fingerprint in sentCommon, consumed in order for
	// duplicates.
	pos := make(map[packet.Fingerprint][]int)
	for i, fp := range sentCommon {
		pos[fp] = append(pos[fp], i)
	}
	mapped := make([]int, 0, len(recvCommon))
	used := make(map[packet.Fingerprint]int)
	for _, fp := range recvCommon {
		k := used[fp]
		mapped = append(mapped, pos[fp][k])
		used[fp] = k + 1
	}
	lcs := longestIncreasing(mapped)
	return len(sentCommon) - lcs
}
