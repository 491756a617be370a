package tvinfo

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

var policies = []Policy{PolicyFlow, PolicyContent, PolicyOrder, PolicyTimeliness}

func TestSummaryEncodeDecodeRoundTrip(t *testing.T) {
	for _, policy := range policies {
		s := NewSummary(policy)
		for i := 0; i < 20; i++ {
			s.RecordTimed(packet.Fingerprint(i%7), 100+i, time.Duration(i)*time.Millisecond)
		}
		got, ok := DecodeSummary(s.Encode())
		if !ok {
			t.Fatalf("policy %v: decode failed", policy)
		}
		if got.Counter != s.Counter {
			t.Fatalf("policy %v: counter %+v != %+v", policy, got.Counter, s.Counter)
		}
		if (got.FPs == nil) != (s.FPs == nil) || (got.Ordered == nil) != (s.Ordered == nil) ||
			(got.Timed == nil) != (s.Timed == nil) {
			t.Fatalf("policy %v: section presence mismatch", policy)
		}
		if s.FPs != nil && got.FPs.Len() != s.FPs.Len() {
			t.Fatalf("policy %v: fp count %d != %d", policy, got.FPs.Len(), s.FPs.Len())
		}
		if s.Ordered != nil && !slices.Equal(got.Ordered.Seq(), s.Ordered.Seq()) {
			t.Fatalf("policy %v: ordered %v, want %v", policy, got.Ordered.Seq(), s.Ordered.Seq())
		}
		if a, b := got.Timed, s.Timed; b != nil && (!slices.Equal(a.FPs, b.FPs) ||
			!slices.Equal(a.Sizes, b.Sizes) || !slices.Equal(a.TSs, b.TSs) || !slices.Equal(a.Flows, b.Flows)) {
			t.Fatalf("policy %v: timed %+v, want %+v", policy, *a, *b)
		}
	}
}

func TestValidateTimeliness(t *testing.T) {
	up := NewSummary(PolicyTimeliness)
	down := NewSummary(PolicyTimeliness)
	for i := 0; i < 10; i++ {
		fp := packet.Fingerprint(i)
		sent := time.Duration(i) * time.Millisecond
		up.RecordTimed(fp, 100, sent)
		delay := time.Millisecond
		if i >= 7 {
			delay = 100 * time.Millisecond
		}
		down.RecordTimed(fp, 100, sent+delay)
	}
	th := Thresholds{MaxDelay: 10 * time.Millisecond, Late: 1}
	if res := Validate(PolicyTimeliness, th, up, down); res.OK || res.LateCount != 3 {
		t.Fatalf("late packets not flagged: %v", res)
	}
	th.Late = 5
	if res := Validate(PolicyTimeliness, th, up, down); !res.OK {
		t.Fatalf("within late threshold: %v", res)
	}
}

// TestTimelinessFabricationThreshold: timelinessTV bounded packets seen only
// downstream by th.Loss where contentTV and orderTV use th.Fabrication, so
// the two thresholds could not be set apart under PolicyTimeliness — and a
// Πk+2 sink end judging its record against ∅ sees all of it as fabricated.
func TestTimelinessFabricationThreshold(t *testing.T) {
	up, down := NewSummary(PolicyTimeliness), NewSummary(PolicyTimeliness)
	for i := 0; i < 3; i++ {
		down.RecordTimed(packet.Fingerprint(i), 100, time.Duration(i)*time.Millisecond)
	}
	for _, tc := range []struct {
		th Thresholds
		ok bool
	}{
		{Thresholds{Loss: 0, Fabrication: 3}, true},
		{Thresholds{Loss: 3, Fabrication: 2}, false},
	} {
		res := Validate(PolicyTimeliness, tc.th, up, down)
		if res.OK != tc.ok || res.Fabricated != 3 {
			t.Errorf("3 fabricated under %+v: %v, want ok=%v", tc.th, res, tc.ok)
		}
	}
}

// TestValidateMissingSection: a summary that omits the section its policy
// validates — a Corruptor's &Summary{Counter: c}, or a 28-byte wire payload
// whose three sections are absent, which DecodeSummary accepts — reached
// FPSet.normalise (or Seq, or Entries) through a nil pointer. It fails
// validation instead, whichever side it is on, and says which section.
func TestValidateMissingSection(t *testing.T) {
	bare, ok := DecodeSummary((&Summary{}).Encode())
	if !ok || bare.FPs != nil || bare.Ordered != nil || bare.Timed != nil {
		t.Fatalf("the all-absent encoding decoded to %+v, %v", bare, ok)
	}
	for _, tc := range []struct {
		policy  Policy
		section string
	}{
		{PolicyContent, "fingerprint"},
		{PolicyOrder, "ordered"},
		{PolicyTimeliness, "timed"},
	} {
		full := NewSummary(tc.policy)
		full.Record(1, 100)
		for _, pair := range [][2]*Summary{{bare, full}, {full, bare}, {bare, bare}} {
			res := Validate(tc.policy, Thresholds{Loss: 10, Fabrication: 10}, pair[0], pair[1])
			if res.OK || !strings.Contains(res.Detail, tc.section) {
				t.Errorf("policy %v: %v, want a failure naming the %s section", tc.policy, res, tc.section)
			}
		}
	}
	if res := Validate(PolicyFlow, Thresholds{}, bare, bare); !res.OK {
		t.Errorf("PolicyFlow reads only the counter: %v", res)
	}
}

// contentEncoding is a PolicyContent summary encoding around a raw FP
// section of (fingerprint, count) entries.
func contentEncoding(entries ...uint64) []byte {
	b := make([]byte, 16) // counter
	b = binary.BigEndian.AppendUint32(b, uint32(12*len(entries)/2))
	for i := 0; i+1 < len(entries); i += 2 {
		b = binary.BigEndian.AppendUint64(b, entries[i])
		b = binary.BigEndian.AppendUint32(b, uint32(entries[i+1]))
	}
	b = binary.BigEndian.AppendUint32(b, ^uint32(0))    // no order section
	return binary.BigEndian.AppendUint32(b, ^uint32(0)) // no timed section
}

const hostile = 1<<32 - 1

// malformedSummaries are hand-made wire payloads, well formed or not.
var malformedSummaries = []struct {
	name  string
	b     []byte
	ok    bool
	count int // multiplicity of fingerprint 3 when decoded
}{
	{"nil", nil, false, 0},
	{"short", make([]byte, 10), false, 0},
	{"truncated header", make([]byte, 23), false, 0},
	{"trailing junk", append(NewSummary(PolicyContent).Encode(), 0xFF), false, 0},
	{"canonical fp section", contentEncoding(3, 1, 9, 2), true, 1},
	{"unsorted fp section", contentEncoding(9, 1, 3, 1), false, 0},
	{"duplicate fingerprint", contentEncoding(3, 1, 3, 1), false, 0},
	{"zero count", contentEncoding(3, 0), false, 0},
	// One 12-byte entry claiming 2³²−1 copies is canonical; decoding it
	// must cost one entry, not 2³²−1 insertions.
	{"hostile multiplicity", contentEncoding(3, hostile), true, hostile},
}

func TestDecodeSummaryMalformed(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, tc := range malformedSummaries {
			s, ok := DecodeSummary(tc.b)
			if ok != tc.ok {
				t.Errorf("%s: decoded = %v, want %v", tc.name, ok, tc.ok)
			}
			if ok && s.FPs.Count(3) != tc.count {
				t.Errorf("%s: count %d, want %d", tc.name, s.FPs.Count(3), tc.count)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("DecodeSummary still running after 1s: decode cost follows the claimed multiplicity")
	}
}

// FuzzDecodeSummary feeds DecodeSummary peer-written bytes. It must never
// panic. What it accepts must re-encode to the same bytes, since Π2
// re-verifies evidence by re-encoding a decoded summary. And a decoded
// summary validated against itself passes every policy whose section it
// carries and fails, without panicking, every policy whose section it lacks.
func FuzzDecodeSummary(f *testing.F) {
	for _, policy := range policies {
		s := NewSummary(policy)
		f.Add(s.Encode())
		for i := 0; i < 5; i++ {
			s.RecordTimed(packet.Fingerprint(i%3), 100+i, time.Duration(i)*time.Millisecond)
		}
		f.Add(s.Encode())
	}
	for _, tc := range malformedSummaries {
		f.Add(tc.b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, ok := DecodeSummary(b)
		if !ok {
			return
		}
		if got := s.Encode(); !bytes.Equal(got, b) {
			t.Fatalf("decoded %x re-encodes to %x", b, got)
		}
		carries := map[Policy]bool{
			PolicyFlow:       true,
			PolicyContent:    s.FPs != nil,
			PolicyOrder:      s.Ordered != nil,
			PolicyTimeliness: s.Timed != nil,
		}
		for _, policy := range policies {
			if res := Validate(policy, Thresholds{}, s, s); res.OK != carries[policy] {
				t.Fatalf("policy %v against itself: %v, section present %v", policy, res, carries[policy])
			}
		}
	})
}

// TestNextHop: PathTable.After, the next-hop prediction χ and the threshold
// baseline share, answers −1 for a router off the path, at its end, or for
// addresses the sender forged outside the table.
func TestNextHop(t *testing.T) {
	g := topology.Line(5) // 0-1-2-3-4
	o := g.CSR().Paths()
	n := packet.NodeID(g.NumNodes())
	for _, tc := range []struct {
		src, dst, at, want packet.NodeID
	}{
		{0, 4, 0, 1},
		{0, 4, 2, 3},
		{4, 0, 3, 2},
		{0, 4, 4, -1}, // the last router
		{0, 2, 2, -1}, // the destination
		{0, 2, 3, -1}, // off the path
		{0, 4, n, -1}, // not a router
		{-1, 4, 2, -1},
		{0, n, 2, -1},
		{math.MaxInt32, 4, 2, -1},
		{0, math.MinInt32, 2, -1},
	} {
		if got := o.After(tc.src, tc.dst, tc.at); got != tc.want {
			t.Errorf("After(%d, %d, %d) = %d, want %d", tc.src, tc.dst, tc.at, got, tc.want)
		}
	}
}

func TestValidatePolicies(t *testing.T) {
	up := NewSummary(PolicyOrder)
	down := NewSummary(PolicyOrder)
	for i := 0; i < 10; i++ {
		up.Record(packet.Fingerprint(i), 100)
	}
	// Down is missing 5 packets.
	for i := 0; i < 5; i++ {
		down.Record(packet.Fingerprint(i), 100)
	}
	th := Thresholds{Loss: 2}
	for _, policy := range []Policy{PolicyFlow, PolicyContent, PolicyOrder} {
		if res := Validate(policy, th, up, down); res.OK {
			t.Errorf("policy %v: 5 losses passed with threshold 2", policy)
		}
	}
	if res := Validate(PolicyContent, Thresholds{Loss: 5}, up, down); !res.OK {
		t.Error("losses within threshold failed")
	}
}

// TestOracleOutOfRange: a packet's addresses are the sender's to write, so
// the dense path table the monitors predict from must answer nil, not index
// outside itself, for any pair it does not span.
func TestOracleOutOfRange(t *testing.T) {
	g := topology.Line(5)
	o := g.CSR().Paths()
	n := packet.NodeID(g.NumNodes())
	if o.Path(0, n-1) == nil {
		t.Fatal("the table lost the path 0→4")
	}
	for _, c := range [][2]packet.NodeID{{-1, 2}, {2, -1}, {1, n}, {n, 1}, {1, math.MaxInt32}, {math.MinInt32, 1}, {n, n}} {
		if p := o.Path(c[0], c[1]); p != nil {
			t.Errorf("Path(%d, %d) = %v, want nil", c[0], c[1], p)
		}
	}
	if empty := topology.NewPathTable(nil); empty.Path(0, 0) != nil {
		t.Errorf("a table of no paths answered %v", empty.Path(0, 0))
	}
}

// TestOracleAllocs: a path table built from explicit paths, as RefreshPaths
// builds one after a routing change, is one int32 index over the paths and
// one arena their router IDs are copied into, not a copy of their headers
// nor a structure per pair. NewPathTable returns the table by value, so
// what is counted is the index and the arena.
func TestOracleAllocs(t *testing.T) {
	paths := tablePaths(topology.ISP(topology.ISPSpec{Nodes: 100, Seed: 1}).CSR().Paths())
	if n := testing.AllocsPerRun(5, func() { topology.NewPathTable(paths) }); n > 2 {
		t.Fatalf("NewPathTable over %d paths: %v allocations, want at most 2", len(paths), n)
	}
}

func TestOracleOnSegment(t *testing.T) {
	o := topology.Line(5).CSR().Paths()
	// Path 0→4 is 0-1-2-3-4.
	if !OnSegment(o, 0, 4, topology.Segment{1, 2, 3}, 1, 0) {
		t.Fatal("aligned segment rejected")
	}
	if OnSegment(o, 0, 4, topology.Segment{1, 2, 3}, 1, 1) {
		t.Fatal("misaligned position accepted")
	}
	if OnSegment(o, 0, 4, topology.Segment{2, 1, 0}, 2, 0) {
		t.Fatal("reverse segment accepted for forward path")
	}
	if !OnSegment(o, 4, 0, topology.Segment{2, 1, 0}, 0, 2) {
		t.Fatal("reverse path segment rejected")
	}
}
