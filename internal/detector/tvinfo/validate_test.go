package tvinfo

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/summary"
)

func TestFlowTV(t *testing.T) {
	var up, down summary.Counter
	for i := 0; i < 100; i++ {
		up.Add(1000)
	}
	for i := 0; i < 95; i++ {
		down.Add(1000)
	}
	th := Thresholds{Loss: 10}
	if res := flowTV(th, up, down); !res.OK || res.Lost != 5 {
		t.Fatalf("within threshold: %v", res)
	}
	th = Thresholds{Loss: 3}
	res := flowTV(th, up, down)
	if res.OK {
		t.Fatalf("5 losses passed threshold 3: %v", res)
	}
	if !strings.Contains(res.String(), "FAIL") {
		t.Fatalf("result string: %q", res.String())
	}
}

func TestFlowTVFabricationShowsAsNegativeLoss(t *testing.T) {
	var up, down summary.Counter
	up.Add(100)
	down.Add(100)
	down.Add(100)
	res := flowTV(Thresholds{}, up, down)
	// Conservation of flow alone cannot flag fabrication as a failure —
	// the WATCHERS weakness — but the counts are reported.
	if res.Fabricated != 1 {
		t.Fatalf("fabricated = %d", res.Fabricated)
	}
}

func TestContentTV(t *testing.T) {
	up, down := summary.NewFPSet(), summary.NewFPSet()
	for i := 0; i < 50; i++ {
		up.Add(packet.Fingerprint(i))
		if i%10 != 0 { // 5 lost
			down.Add(packet.Fingerprint(i))
		}
	}
	down.Add(0xBAD) // 1 fabricated
	th := Thresholds{Loss: 10, Fabrication: 2}
	if res := contentTV(th, up, down); !res.OK || res.Lost != 5 || res.Fabricated != 1 {
		t.Fatalf("res %v", res)
	}
	th = Thresholds{Loss: 4, Fabrication: 0}
	if res := contentTV(th, up, down); res.OK {
		t.Fatalf("should fail both thresholds: %v", res)
	}
}

func TestContentTVDetectsModification(t *testing.T) {
	// Modification = one lost + one fabricated fingerprint.
	up, down := summary.NewFPSet(), summary.NewFPSet()
	up.Add(1)
	down.Add(2)
	res := contentTV(Thresholds{}, up, down)
	if res.OK || res.Lost != 1 || res.Fabricated != 1 {
		t.Fatalf("modification signature wrong: %v", res)
	}
}

func TestContentTVHostileMultiplicity(t *testing.T) {
	// One 12-byte wire entry may claim 2³²−1 copies of a fingerprint. The
	// predicate counts the difference instead of expanding it, and the
	// verdict is the (correct) failure of the liar's pair.
	const claimed = 1<<32 - 1
	entry := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, 7), claimed)
	liar, err := summary.DecodeFPSet(entry)
	if err != nil {
		t.Fatal(err)
	}
	honest := summary.NewFPSet()
	honest.Add(7)
	honest.Add(8)
	th := Thresholds{Loss: 2, Fabrication: 2}
	if res := contentTV(th, liar, honest); res.OK || res.Lost != claimed-1 || res.Fabricated != 1 {
		t.Fatalf("liar upstream: %v", res)
	}
	if res := contentTV(th, honest, liar); res.OK || res.Lost != 1 || res.Fabricated != claimed-1 {
		t.Fatalf("liar downstream: %v", res)
	}
}

func TestOrderTVCountsMultiplicity(t *testing.T) {
	// Loss and fabrication are multiset differences: two of three copies
	// lost, one extra copy of another fingerprint fabricated.
	up, down := summary.NewOrderedFP(), summary.NewOrderedFP()
	for _, fp := range []packet.Fingerprint{1, 1, 1, 2} {
		up.Add(fp)
	}
	for _, fp := range []packet.Fingerprint{1, 2, 2} {
		down.Add(fp)
	}
	res := orderTV(Thresholds{Loss: 1, Fabrication: 1}, up, down)
	if res.OK || res.Lost != 2 || res.Fabricated != 1 {
		t.Fatalf("multiset difference: %v", res)
	}
}

func TestOrderTV(t *testing.T) {
	up, down := summary.NewOrderedFP(), summary.NewOrderedFP()
	for i := 0; i < 20; i++ {
		up.Add(packet.Fingerprint(i))
	}
	// Received in blocks swapped: 10..19 then 0..9.
	for i := 10; i < 20; i++ {
		down.Add(packet.Fingerprint(i))
	}
	for i := 0; i < 10; i++ {
		down.Add(packet.Fingerprint(i))
	}
	th := Thresholds{Reorder: 5}
	res := orderTV(th, up, down)
	if res.OK || res.Reordered != 10 {
		t.Fatalf("block swap: %v", res)
	}
	th = Thresholds{Reorder: 10}
	if res := orderTV(th, up, down); !res.OK {
		t.Fatalf("within reorder threshold: %v", res)
	}
}

func TestTimelinessTV(t *testing.T) {
	var up, down summary.TimedFP
	for i := 0; i < 10; i++ {
		fp := packet.Fingerprint(i)
		sent := time.Duration(i) * time.Millisecond
		up.Append(fp, 100, sent, 0)
		delay := 2 * time.Millisecond
		if i == 7 {
			delay = 500 * time.Millisecond // maliciously delayed
		}
		down.Append(fp, 100, sent+delay, 0)
	}
	th := Thresholds{MaxDelay: 10 * time.Millisecond, Late: 0}
	res := timelinessTV(th, &up, &down)
	if res.OK || res.LateCount != 1 {
		t.Fatalf("late packet not flagged: %v", res)
	}
	th = Thresholds{MaxDelay: time.Second}
	if res := timelinessTV(th, &up, &down); !res.OK {
		t.Fatalf("all within bound: %v", res)
	}
}

func TestTimelinessTVLossAndFabrication(t *testing.T) {
	var up, down summary.TimedFP
	up.Append(1, 100, 0, 0)
	up.Append(2, 100, 0, 0)
	down.Append(1, 100, time.Millisecond, 0)
	down.Append(9, 100, time.Millisecond, 0)
	th := Thresholds{MaxDelay: time.Second, Loss: 0}
	res := timelinessTV(th, &up, &down)
	if res.OK || res.Lost != 1 || res.Fabricated != 1 {
		t.Fatalf("res %v", res)
	}
}

func TestResultStringOK(t *testing.T) {
	if got := (Result{OK: true}).String(); got != "ok" {
		t.Fatalf("ok string %q", got)
	}
}
