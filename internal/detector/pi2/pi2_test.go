package pi2

import (
	"encoding/binary"
	"encoding/hex"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"routerwatch/internal/attack"
	"routerwatch/internal/consensus"
	"routerwatch/internal/detector"
	"routerwatch/internal/detector/tvinfo"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/summary"
	"routerwatch/internal/topology"
)

const testRound = 500 * time.Millisecond

func testOpts(log *detector.Log) Options {
	return Options{
		K:          1,
		Round:      testRound,
		Settle:     150 * time.Millisecond,
		Policy:     tvinfo.PolicyContent,
		Thresholds: tvinfo.Thresholds{Loss: 2, Fabrication: 2},
		Sink:       detector.LogSink(log),
	}
}

func pump(net *network.Network, from, to packet.NodeID, n int, flow packet.FlowID) {
	for i := 0; i < n; i++ {
		i := i
		net.Scheduler().At(time.Duration(i)*time.Millisecond+time.Microsecond, func() {
			net.Inject(from, &packet.Packet{Dst: to, Size: 500, Flow: flow, Seq: uint32(i), Payload: uint64(i)})
		})
	}
}

func TestMonitoredSegments(t *testing.T) {
	net := network.New(topology.Line(6), network.Options{Seed: 1})
	p := Attach(protocol.NewSimEnv(net), testOpts(detector.NewLog()))
	// k=1 on a 6-line: router 2 belongs to 3-segments starting at 0,1,2 in
	// each direction = 6 (mirrors the topology test).
	if got := len(p.agents[2].segs); got != 6 {
		t.Fatalf("router 2 monitors %d segments, want 6", got)
	}
}

func TestNoAttackNoSuspicions(t *testing.T) {
	log := detector.NewLog()
	net := network.New(topology.Line(4), network.Options{Seed: 2, ProcessingJitter: 100 * time.Microsecond})
	Attach(protocol.NewSimEnv(net), testOpts(log))
	pump(net, 0, 3, 1500, 1)
	pump(net, 3, 0, 1500, 2)
	net.Run(3 * time.Second)
	if log.Len() != 0 {
		t.Fatalf("false positives: %v", log.All())
	}
}

func TestHonestRecorderDropLocalizedUpstreamPair(t *testing.T) {
	// Faulty router 1 drops traffic but reports honestly: the discrepancy
	// appears between 0's sends and 1's (empty) sends — pair ⟨0,1⟩.
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{Seed: 3})
	Attach(protocol.NewSimEnv(net), testOpts(log))
	net.Router(1).SetBehavior(&attack.Dropper{Select: attack.All, P: 1})
	pump(net, 0, 2, 400, 1)
	net.Run(3 * time.Second)

	if log.Len() == 0 {
		t.Fatal("drop attack not detected")
	}
	gt := detector.NewGroundTruth([]packet.NodeID{1}, nil)
	if v := detector.CheckAccuracy(log, gt, 2); len(v) != 0 {
		t.Fatalf("accuracy violations: %v", v)
	}
	if missing := detector.CheckCompleteness(log, gt, 1, net.Graph().Nodes()); len(missing) != 0 {
		t.Fatalf("incomplete, missing %v", missing)
	}
	if p := detector.Precision(log); p != 2 {
		t.Fatalf("precision %d, want 2", p)
	}
	want := topology.Segment{0, 1}
	found := false
	for _, seg := range log.Segments() {
		if topology.Key(seg) == topology.Key(want) {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected pair %v among %v", want, log.Segments())
	}
}

func TestLyingDropperLocalizedDownstreamPair(t *testing.T) {
	// Faulty router 1 drops traffic AND lies, claiming to have forwarded
	// everything it received. The lie makes pair ⟨0,1⟩ validate, but pair
	// ⟨1,2⟩ then fails: 1 claims sends that 2 never saw.
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{Seed: 4})
	p := Attach(protocol.NewSimEnv(net), testOpts(log))
	net.Router(1).SetBehavior(&attack.Dropper{Select: attack.All, P: 1})

	// The liar builds its forged "sends" from what it actually received.
	hasher := net.Hasher()
	g := net.Graph()
	l12, _ := g.Link(1, 2)
	forged := make(map[int]*tvinfo.Summary)
	net.Router(1).AddTap(func(ev network.Event) {
		if ev.Kind == network.EvReceive && ev.Peer == 0 {
			ts := ev.Time + l12.Delay + l12.TransmissionTime(ev.Packet.Size)
			n := int(ts / testRound)
			s := forged[n]
			if s == nil {
				s = tvinfo.NewSummary(tvinfo.PolicyContent)
				forged[n] = s
			}
			s.Record(hasher.Fingerprint(ev.Packet), ev.Packet.Size)
		}
	})
	p.SetCorruptor(1, func(seg topology.Segment, round int, s *tvinfo.Summary) *tvinfo.Summary {
		if f := forged[round]; f != nil {
			return f
		}
		return tvinfo.NewSummary(tvinfo.PolicyContent)
	})

	pump(net, 0, 2, 400, 1)
	net.Run(3 * time.Second)

	gt := detector.NewGroundTruth([]packet.NodeID{1}, []packet.NodeID{1})
	if v := detector.CheckAccuracy(log, gt, 2); len(v) != 0 {
		t.Fatalf("accuracy violations: %v", v)
	}
	want := topology.Segment{1, 2}
	found := false
	for _, seg := range log.Segments() {
		if topology.Key(seg) == topology.Key(want) {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected pair %v among %v", want, log.Segments())
	}
}

func TestEquivocationDetected(t *testing.T) {
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{Seed: 5})
	p := Attach(protocol.NewSimEnv(net), testOpts(log))
	p.SetEquivocator(1)
	pump(net, 0, 2, 100, 1)
	net.Run(2 * time.Second)

	found := false
	for _, s := range log.All() {
		if s.Kind == detector.KindEquivocation && s.Segment.Contains(1) {
			found = true
		}
	}
	if !found {
		t.Fatalf("equivocation not detected: %v", log.All())
	}
}

func TestSilentParticipantDetected(t *testing.T) {
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{Seed: 6})
	p := Attach(protocol.NewSimEnv(net), testOpts(log))
	p.SetCorruptor(1, func(topology.Segment, int, *tvinfo.Summary) *tvinfo.Summary { return nil })
	pump(net, 0, 2, 100, 1)
	net.Run(2 * time.Second)

	found := false
	for _, s := range log.All() {
		if s.Kind == detector.KindExchangeTimeout && s.Segment.Contains(1) {
			found = true
		}
	}
	if !found {
		t.Fatalf("silent participant not detected: %v", log.All())
	}
}

func TestModificationLocalized(t *testing.T) {
	log := detector.NewLog()
	net := network.New(topology.Line(5), network.Options{Seed: 7})
	Attach(protocol.NewSimEnv(net), testOpts(log))
	net.Router(2).SetBehavior(&attack.Modifier{Select: attack.All})
	pump(net, 0, 4, 400, 1)
	net.Run(3 * time.Second)

	gt := detector.NewGroundTruth([]packet.NodeID{2}, nil)
	if v := detector.CheckAccuracy(log, gt, 2); len(v) != 0 {
		t.Fatalf("accuracy violations: %v", v)
	}
	if missing := detector.CheckCompleteness(log, gt, 2, net.Graph().Nodes()); len(missing) != 0 {
		t.Fatalf("incomplete, missing %v", missing)
	}
	if p := detector.Precision(log); p != 2 {
		t.Fatalf("precision %d, want 2", p)
	}
}

func TestBogusAlertWithoutEvidenceRejected(t *testing.T) {
	// A faulty router floods a TV alert with garbage evidence framing a
	// correct pair: nobody adopts it.
	log := detector.NewLog()
	net := network.New(topology.Line(4), network.Options{Seed: 8})
	p := Attach(protocol.NewSimEnv(net), testOpts(log))
	pump(net, 0, 3, 50, 1)
	net.Run(600 * time.Millisecond)

	ev := &AlertEvidence{
		Seg:         topology.Segment{1, 2, 3},
		Pair:        topology.Segment{2, 3},
		Round:       0,
		Kind:        detector.KindTrafficValidation,
		Detail:      "framed",
		Announce:    0,
		HasEvidence: true,
		Up:          consensus.Msg{Origin: 2, Topic: TopicInfo},
		Dn:          consensus.Msg{Origin: 3, Topic: TopicInfo},
	}
	p.floodAlert(0, ev)
	net.Run(2 * time.Second)

	for _, s := range log.All() {
		if s.Detail == "announced by r0: framed" {
			t.Fatalf("bogus alert adopted: %v", s)
		}
	}
}

func TestSelfSignedEmptyEvidenceRejected(t *testing.T) {
	// A faulty router signs two empty-payload pi2/info messages itself and
	// floods them as evidence: both signatures verify, and there is no
	// position to read. Receivers drop the alert.
	log := detector.NewLog()
	net := network.New(topology.Line(4), network.Options{Seed: 8})
	p := Attach(protocol.NewSimEnv(net), testOpts(log))
	net.Run(300 * time.Millisecond)

	seg := topology.Segment{1, 2, 3}
	inst := infoInstance(seg, 0)
	empty := consensus.Msg{Origin: 0, Topic: TopicInfo, Instance: inst}
	empty.Sig = net.Auth().Sign(0, consensus.SignedBody(0, TopicInfo, inst, nil))
	p.floodAlert(0, &AlertEvidence{
		Seg:         seg,
		Pair:        topology.Segment{2, 3},
		Round:       0,
		Kind:        detector.KindTrafficValidation,
		Detail:      "framed",
		Announce:    0,
		HasEvidence: true,
		Up:          empty,
		Dn:          empty,
	})
	net.Run(2 * time.Second)

	if log.Len() != 0 {
		t.Fatalf("empty evidence adopted: %v", log.All())
	}
}

func TestHostileMultiplicityLocalizedToReporterPair(t *testing.T) {
	// Router 1 forwards honestly but reports one fingerprint with a claimed
	// multiplicity of 2³²−1. Judging costs the one wire entry, and the lie
	// is a traffic-validation failure of a pair containing the liar.
	entry := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(nil, 0xF00D), 1<<32-1)
	fps, err := summary.DecodeFPSet(entry)
	if err != nil {
		t.Fatal(err)
	}
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{Seed: 10})
	p := Attach(protocol.NewSimEnv(net), testOpts(log))
	p.SetCorruptor(1, func(topology.Segment, int, *tvinfo.Summary) *tvinfo.Summary {
		return &tvinfo.Summary{FPs: fps}
	})
	pump(net, 0, 2, 100, 1)
	net.Run(2 * time.Second)

	if log.Len() == 0 {
		t.Fatal("hostile multiplicity not suspected")
	}
	for _, s := range log.All() {
		if s.Kind != detector.KindTrafficValidation || !s.Segment.Contains(1) {
			t.Fatalf("suspicion is not a TV failure of the liar's pair: %v", s)
		}
	}
}

// TestSectionlessSummaryLocalizedToReporterPair: router 1 forwards honestly
// and floods a counter with no section after it — 28 bytes DecodeSummary
// accepts. Every correct router judging it reached FPSet.normalise through
// a nil pointer; it is a traffic-validation failure of a pair containing
// the reporter.
func TestSectionlessSummaryLocalizedToReporterPair(t *testing.T) {
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{Seed: 10})
	p := Attach(protocol.NewSimEnv(net), testOpts(log))
	p.SetCorruptor(1, func(_ topology.Segment, _ int, s *tvinfo.Summary) *tvinfo.Summary {
		return &tvinfo.Summary{Counter: s.Counter}
	})
	pump(net, 0, 2, 100, 1)
	net.Run(2 * time.Second)

	if log.Len() == 0 {
		t.Fatal("sectionless summary not suspected")
	}
	for _, s := range log.All() {
		if s.Kind != detector.KindTrafficValidation || !s.Segment.Contains(1) {
			t.Fatalf("suspicion is not a TV failure of the reporter's pair: %v", s)
		}
	}
}

// TestCollectedBoundedByRoundWindow is ROADMAP 4a's open hole: onInfo filed
// a flooded summary under any round not yet judged, so a protocol-faulty
// segment member could grow every correct router's collected map without
// bound by signing rounds far in the future. Router 1 of a 3-line floods
// ten thousand of them for ⟨0,1,2⟩; every router must end the run holding
// no more than the rounds in flight, with the verdicts of the run without
// the flood.
func TestCollectedBoundedByRoundWindow(t *testing.T) {
	const forgeries = 10000
	run := func(forge bool) (string, *Protocol) {
		log := detector.NewLog()
		net := network.New(topology.Line(3), network.Options{Seed: 12})
		p := Attach(protocol.NewSimEnv(net), testOpts(log))
		if forge {
			seg := topology.Segment{0, 1, 2}
			net.Scheduler().At(1100*time.Millisecond, func() {
				for i := 0; i < forgeries; i++ {
					p.flood.Flood(1, TopicInfo, infoInstance(seg, 1000+i),
						infoPayload(1, tvinfo.NewSummary(tvinfo.PolicyContent)))
				}
			})
		}
		pump(net, 0, 2, 2400, 1)
		net.Run(5*testRound + 200*time.Millisecond)
		return log.String(), p
	}

	want, _ := run(false)
	got, p := run(true)
	if got != want {
		t.Errorf("transcript with %d far-future summaries:\n%s\nwithout:\n%s", forgeries, got, want)
	}
	for _, a := range p.agents {
		for _, st := range a.segs {
			if n := len(st.collected); n > 2 {
				t.Errorf("router %v holds %d rounds for %v after the run, want at most 2", a.id, n, st.Seg)
			}
		}
	}
}

func TestNonMemberTimeoutAlertRejected(t *testing.T) {
	log := detector.NewLog()
	net := network.New(topology.Line(4), network.Options{Seed: 9})
	p := Attach(protocol.NewSimEnv(net), testOpts(log))
	net.Run(300 * time.Millisecond)

	// Router 0 (not in ⟨1,2,3⟩) floods an evidence-free timeout alert.
	ev := &AlertEvidence{
		Seg:      topology.Segment{1, 2, 3},
		Pair:     topology.Segment{1, 2},
		Round:    0,
		Kind:     detector.KindExchangeTimeout,
		Detail:   "framed-timeout",
		Announce: 0,
	}
	p.floodAlert(0, ev)
	net.Run(2 * time.Second)
	for _, s := range log.All() {
		if s.Segment.Contains(1) && s.Segment.Contains(2) {
			t.Fatalf("non-member alert adopted: %v", s)
		}
	}
}

func TestInstanceRoundTrip(t *testing.T) {
	seg := topology.Segment{3, 7, 11}
	inst := infoInstance(seg, 42)
	gotSeg, gotRound, ok := parseInstance(inst, nil)
	if !ok || !slices.Equal(gotSeg, seg) || gotRound != 42 {
		t.Fatalf("parseInstance(%q) = %v/%d/%v", inst, gotSeg, gotRound, ok)
	}
	// A member signs whatever instance string it likes; only the one a
	// correct router makes names the segment.
	hexKey := hex.EncodeToString([]byte(topology.Key(seg)))
	for _, bad := range []string{
		"nonsense",
		hexKey + "zz/42",     // trailing non-hex
		" " + hexKey + "/42", // leading space
		hexKey[1:] + "/42",   // odd length
		hexKey + "42",        // no '/'
		hexKey[2:] + "/42",   // not a whole segment key
	} {
		if s, n, ok := parseInstance(bad, nil); ok {
			t.Errorf("parseInstance(%q) accepted as %v/%d", bad, s, n)
		}
	}
	// It reads what hex.DecodeString and DecodeKey read: either case, the
	// empty key, any round Atoi takes.
	for _, in := range []string{
		inst, strings.ToUpper(hexKey) + "/42", "/7", hexKey + "/-1", hexKey + "/x",
		"nonsense", hexKey + "zz/42", hexKey[1:] + "/42", hexKey[2:] + "/42",
	} {
		gotSeg, gotRound, ok := parseInstance(in, make(topology.Segment, 0, 1))
		refSeg, refRound, refOK := refParseInstance(in)
		if ok != refOK || ok && (!slices.Equal(gotSeg, refSeg) || gotRound != refRound) {
			t.Errorf("parseInstance(%q) = %v/%d/%v, hex.DecodeString reads %v/%d/%v",
				in, gotSeg, gotRound, ok, refSeg, refRound, refOK)
		}
	}
}

// refParseInstance is parseInstance by the standard library's hex decoder.
func refParseInstance(inst string) (topology.Segment, int, bool) {
	i := strings.LastIndexByte(inst, '/')
	if i < 0 {
		return nil, 0, false
	}
	n, err := strconv.Atoi(inst[i+1:])
	if err != nil {
		return nil, 0, false
	}
	key, err := hex.DecodeString(inst[:i])
	if err != nil || len(key)%4 != 0 {
		return nil, 0, false
	}
	return topology.DecodeKey(topology.SegmentKey(key)), n, true
}

// TestOneRoundClock: the deployment has one round clock, not one per
// router: attached to a traffic-free line of five routers, Π2 leaves one
// pending event.
func TestOneRoundClock(t *testing.T) {
	net := network.New(topology.Line(5), network.Options{Seed: 13})
	Attach(protocol.NewSimEnv(net), testOpts(detector.NewLog()))
	if n := net.Scheduler().Pending(); n != 1 {
		t.Fatalf("Attach left %d events pending, want 1", n)
	}
}

// TestOffSegmentInfoAllocFree: a flooded summary for a segment the receiver
// does not watch costs it no allocation — onInfo parses the instance into
// scratch and probes its watches before it keeps anything. Router 5 of a
// 6-line is off ⟨0,1,2⟩, and ⟨0,2,4⟩ is no segment at all; router 1's
// summary for ⟨0,1,2⟩, which router 2 watches, is collected.
func TestOffSegmentInfoAllocFree(t *testing.T) {
	net := network.New(topology.Line(6), network.Options{Seed: 1})
	p := Attach(protocol.NewSimEnv(net), testOpts(detector.NewLog()))
	if !p.rec.Admits(0) {
		t.Fatal("round 0 not admitted before the first boundary")
	}
	payload := infoPayload(1, tvinfo.NewSummary(tvinfo.PolicyContent))
	info := func(seg ...packet.NodeID) consensus.Msg {
		return consensus.Msg{Origin: 1, Topic: TopicInfo, Instance: infoInstance(seg, 0), Payload: payload}
	}
	for _, tc := range []struct {
		name string
		m    consensus.Msg
	}{
		{"off-segment", info(0, 1, 2)},
		{"unknown", info(0, 2, 4)},
	} {
		a := p.agents[5]
		if n := testing.AllocsPerRun(100, func() { a.onInfo(tc.m) }); n != 0 {
			t.Errorf("%s info allocates %v at router 5, want 0", tc.name, n)
		}
	}
	p.agents[2].onInfo(info(0, 1, 2))
	i, ok := p.agents[2].mon.Find(topology.Segment{0, 1, 2})
	if !ok || len(p.agents[2].segs[i].collected[0][1]) != 1 {
		t.Fatal("router 2 did not collect router 1's summary for ⟨0,1,2⟩")
	}
}
