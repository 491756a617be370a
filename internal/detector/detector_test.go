package detector

import (
	"reflect"
	"testing"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

func susp(by packet.NodeID, seg topology.Segment, at time.Duration) Suspicion {
	return Suspicion{By: by, Segment: seg, At: at, Kind: KindTrafficValidation, Confidence: 1}
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
