package detector

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

func susp(by packet.NodeID, seg topology.Segment, at time.Duration) Suspicion {
	return Suspicion{By: by, Segment: seg, At: at, Kind: KindTrafficValidation, Confidence: 1}
}

// TestSuspicionString: the transcript line is byte for byte the fmt form it
// has always been — %v of the instant, router and segment, conf=%.4f — and
// costs one allocation, the string itself.
func TestSuspicionString(t *testing.T) {
	ref := func(s Suspicion) string {
		return fmt.Sprintf("t=%v %v suspects %v round=%d kind=%v conf=%.4f %s",
			s.At, s.By, s.Segment, s.Round, s.Kind, s.Confidence, s.Detail)
	}
	long := Suspicion{By: 7, Segment: topology.Segment{1, 2, 3, 4, 5, 6}, Round: 123456,
		At: 2*time.Hour + 3*time.Minute + 4*time.Second + 5, Kind: KindCombinedLoss,
		Confidence: 0.999951, Detail: "no summary from r3 within 1s, and then some more words"}
	table := []Suspicion{
		{},
		susp(1, topology.Segment{2, 3}, 10*time.Second),
		{By: 0, Segment: topology.Segment{0}, Round: -1, At: 999, Kind: KindExchangeTimeout, Confidence: 0.5},
		{By: -1, Segment: topology.Segment{-1, math.MaxInt32, math.MinInt32}, Round: math.MinInt64,
			At: -1500 * time.Microsecond, Kind: Kind(99), Confidence: -0.00001, Detail: "x"},
		{By: 3, Segment: topology.Segment{}, Round: 3, At: time.Nanosecond, Kind: KindREDShare,
			Confidence: math.Inf(1), Detail: ""},
		{By: 4, Round: 4, At: 1500 * time.Millisecond, Kind: KindFabrication, Confidence: math.NaN()},
		{By: 5, Segment: topology.Segment{5, 6}, At: math.MinInt64, Confidence: math.Inf(-1), Detail: "µ é"},
		{By: 6, Segment: topology.Segment{6, 7}, At: math.MaxInt64, Confidence: math.Copysign(0, -1)},
		{At: 1234567 * time.Nanosecond, Confidence: 0.12345, Detail: "announced by r2"},
		long,
	}
	for _, s := range table {
		if got, want := s.String(), ref(s); got != want {
			t.Errorf("String() = %q, fmt renders %q", got, want)
		}
	}
	if got, want := string(long.Append([]byte("> "))), "> "+ref(long); got != want {
		t.Errorf("Append = %q, want %q", got, want)
	}
	for _, s := range table {
		if n := testing.AllocsPerRun(100, func() { _ = s.String() }); n > 1 {
			t.Errorf("String of %q allocates %v times, want at most 1", ref(s), n)
		}
	}
}

func TestLogBasics(t *testing.T) {
	l := NewLog()
	if l.Len() != 0 || l.FirstAt() != 0 {
		t.Fatal("empty log not empty")
	}
	l.Add(susp(1, topology.Segment{2, 3}, 10*time.Second))
	l.Add(susp(4, topology.Segment{2, 3}, 5*time.Second))
	l.Add(susp(1, topology.Segment{5, 6}, 20*time.Second))

	if l.Len() != 3 {
		t.Fatalf("len %d", l.Len())
	}
	if got := l.FirstAt(); got != 5*time.Second {
		t.Fatalf("FirstAt %v", got)
	}
	if got := len(l.Segments()); got != 2 {
		t.Fatalf("Segments %d", got)
	}
	if p := Precision(l); p != 2 {
		t.Fatalf("precision %d", p)
	}
}

// TestLogSegments: the distinct suspected segments come out once each, in
// key order (node IDs compared unsigned, a proper prefix first), as copies
// of the log's; and a segment suspected again allocates nothing more.
func TestLogSegments(t *testing.T) {
	segs := []topology.Segment{{2, 1, 0}, {0, 1}, {0, 1, 2}, {-1, 0}, {0, 1}, {2, 1, 0}, {0, 1}}
	l := NewLog()
	for i, seg := range segs {
		l.Add(susp(packet.NodeID(i), seg, 0))
	}
	got := l.Segments()
	want := []topology.Segment{{0, 1}, {0, 1, 2}, {2, 1, 0}, {-1, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Segments() = %v, want %v", got, want)
	}
	got[0][0] = 9
	if l.All()[1].Segment[0] != 0 {
		t.Fatal("Segments() aliases the log's segments")
	}

	distinct := testing.AllocsPerRun(20, func() { l.Segments() })
	for i := 0; i < 1000; i++ {
		l.Add(susp(1, segs[i%len(segs)], 0))
	}
	if repeated := testing.AllocsPerRun(20, func() { l.Segments() }); repeated != distinct {
		t.Fatalf("Segments() allocates %v times over 1000 repeated suspicions, %v without them", repeated, distinct)
	}
}

func TestCheckAccuracy(t *testing.T) {
	gt := NewGroundTruth([]packet.NodeID{3}, []packet.NodeID{7})
	l := NewLog()
	l.Add(susp(1, topology.Segment{2, 3}, 0))   // contains traffic-faulty 3: ok
	l.Add(susp(1, topology.Segment{7, 8}, 0))   // contains protocol-faulty 7: ok
	l.Add(susp(3, topology.Segment{10, 11}, 0)) // by a faulty router: exempt
	if v := CheckAccuracy(l, gt, 2); len(v) != 0 {
		t.Fatalf("violations %v", v)
	}
	l.Add(susp(1, topology.Segment{10, 11}, 0)) // frames correct routers
	if v := CheckAccuracy(l, gt, 2); len(v) != 1 {
		t.Fatalf("violations %v, want the framing suspicion", v)
	}
	// Precision bound: a 3-segment violates a=2 even if it contains a
	// faulty router.
	l2 := NewLog()
	l2.Add(susp(1, topology.Segment{2, 3, 4}, 0))
	if v := CheckAccuracy(l2, gt, 2); len(v) != 1 {
		t.Fatalf("precision violation not flagged: %v", v)
	}
	if v := CheckAccuracy(l2, gt, 3); len(v) != 0 {
		t.Fatalf("a=3 should accept: %v", v)
	}
}

func TestCheckCompleteness(t *testing.T) {
	gt := NewGroundTruth([]packet.NodeID{3}, nil)
	routers := []packet.NodeID{0, 1, 2, 3, 4}
	l := NewLog()
	l.Add(susp(0, topology.Segment{2, 3}, 0))
	l.Add(susp(1, topology.Segment{3, 4}, 0))
	l.Add(susp(2, topology.Segment{2, 3}, 0))
	l.Add(susp(4, topology.Segment{2, 3}, 0))
	if missing := CheckCompleteness(l, gt, 3, routers); len(missing) != 0 {
		t.Fatalf("missing %v, want none (faulty router itself is exempt)", missing)
	}
	l2 := NewLog()
	l2.Add(susp(0, topology.Segment{2, 3}, 0))
	l2.Add(susp(1, topology.Segment{0, 1}, 0)) // does not contain 3
	missing := CheckCompleteness(l2, gt, 3, routers)
	if len(missing) != 3 { // 1, 2, 4 never suspected a segment containing 3
		t.Fatalf("missing %v", missing)
	}
}

func TestTee(t *testing.T) {
	a, b := NewLog(), NewLog()
	sink := Tee(LogSink(a), LogSink(b))
	sink(susp(1, topology.Segment{2, 3}, 0))
	if a.Len() != 1 || b.Len() != 1 {
		t.Fatal("tee did not fan out")
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{
		KindTrafficValidation, KindExchangeTimeout, KindEquivocation,
		KindSingleLoss, KindCombinedLoss, KindREDZeroProb, KindREDExcess,
		KindFabrication, Kind(99),
	}
	seen := make(map[string]bool)
	for _, k := range kinds {
		s := k.String()
		if s == "" {
			t.Fatalf("empty string for kind %d", k)
		}
		if seen[s] && s != "unknown" {
			t.Fatalf("duplicate kind string %q", s)
		}
		seen[s] = true
	}
}

func TestGroundTruth(t *testing.T) {
	gt := NewGroundTruth([]packet.NodeID{1}, []packet.NodeID{2})
	if !gt.Faulty(1) || !gt.Faulty(2) || gt.Faulty(3) {
		t.Fatal("ground truth classification wrong")
	}
}
