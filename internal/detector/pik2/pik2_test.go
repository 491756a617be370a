package pik2

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"routerwatch/internal/attack"
	"routerwatch/internal/consensus"
	"routerwatch/internal/detector"
	"routerwatch/internal/detector/tvinfo"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/topology"
)

// testRound is the shortened validation interval used by the unit tests.
const testRound = 500 * time.Millisecond

func testOpts(log *detector.Log) Options {
	return Options{
		K:       1,
		Round:   testRound,
		Timeout: 100 * time.Millisecond,
		Policy:  tvinfo.PolicyContent,
		// Allow a couple of boundary-straddling packets per round.
		Thresholds: tvinfo.Thresholds{Loss: 2, Fabrication: 2},
		Sink:       detector.LogSink(log),
	}
}

// pump injects n packets per direction between the terminal routers of a
// line network, spread one per millisecond.
func pump(net *network.Network, from, to packet.NodeID, n int, flow packet.FlowID) {
	for i := 0; i < n; i++ {
		i := i
		net.Scheduler().At(time.Duration(i)*time.Millisecond+time.Microsecond, func() {
			net.Inject(from, &packet.Packet{Dst: to, Size: 500, Flow: flow, Seq: uint32(i), Payload: uint64(i)})
		})
	}
}

func TestMonitoredSegmentsLine(t *testing.T) {
	net := network.New(topology.Line(4), network.Options{Seed: 1})
	p := Attach(protocol.NewSimEnv(net), testOpts(detector.NewLog()))
	// k=1: router 0 is an end of ⟨0,1,2⟩ and ⟨2,1,0⟩ only.
	var got []string
	for _, st := range p.agents[0].segs {
		got = append(got, st.Seg.String())
	}
	if want := []string{"<r0,r1,r2>", "<r2,r1,r0>"}; !slices.Equal(got, want) {
		t.Fatalf("router 0 monitors %v, want %v", got, want)
	}
}

func TestNoAttackNoSuspicions(t *testing.T) {
	log := detector.NewLog()
	net := network.New(topology.Line(4), network.Options{Seed: 3, ProcessingJitter: 100 * time.Microsecond})
	Attach(protocol.NewSimEnv(net), testOpts(log))
	pump(net, 0, 3, 2000, 1)
	pump(net, 3, 0, 2000, 2)
	net.Run(4 * time.Second)
	if log.Len() != 0 {
		t.Fatalf("false positives without attack: %v", log.All())
	}
}

func TestDropAttackDetected(t *testing.T) {
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{Seed: 4, ProcessingJitter: 100 * time.Microsecond})
	Attach(protocol.NewSimEnv(net), testOpts(log))
	net.Router(1).SetBehavior(&attack.Dropper{Select: attack.All, P: 1})
	pump(net, 0, 2, 500, 1)
	net.Run(3 * time.Second)

	if log.Len() == 0 {
		t.Fatal("total drop attack not detected")
	}
	gt := detector.NewGroundTruth([]packet.NodeID{1}, nil)
	if v := detector.CheckAccuracy(log, gt, 3); len(v) != 0 {
		t.Fatalf("accuracy violations: %v", v)
	}
	if missing := detector.CheckCompleteness(log, gt, 1, net.Graph().Nodes()); len(missing) != 0 {
		t.Fatalf("routers without suspicion (strong completeness): %v", missing)
	}
	if p := detector.Precision(log); p > 3 {
		t.Fatalf("precision %d exceeds k+2=3", p)
	}
}

func TestDetectionLatencyWithinOneRound(t *testing.T) {
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{Seed: 5})
	Attach(protocol.NewSimEnv(net), testOpts(log))
	attackStart := 1200 * time.Millisecond
	net.Router(1).SetBehavior(&attack.Dropper{Select: attack.All, P: 1, Start: attackStart})
	pump(net, 0, 2, 4000, 1)
	net.Run(5 * time.Second)

	first := log.FirstAt()
	if first == 0 {
		t.Fatal("attack not detected")
	}
	if first < attackStart {
		t.Fatalf("detected before the attack started (%v < %v)", first, attackStart)
	}
	// Detection by the end of the round after the attack round, plus µ.
	if limit := attackStart + 2*testRound + 200*time.Millisecond; first > limit {
		t.Fatalf("detection at %v, want before %v", first, limit)
	}
}

func TestPartialDropDetected(t *testing.T) {
	// 20% selective drop — the Fatih experiment's attack magnitude.
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{Seed: 6})
	Attach(protocol.NewSimEnv(net), testOpts(log))
	net.Router(1).SetBehavior(&attack.Dropper{
		Select: attack.All, P: 0.2, Rng: rand.New(rand.NewSource(1)),
	})
	pump(net, 0, 2, 1000, 1)
	net.Run(3 * time.Second)
	if log.Len() == 0 {
		t.Fatal("20%% drop attack not detected")
	}
}

func TestModificationDetectedByContentNotFlow(t *testing.T) {
	for _, tc := range []struct {
		policy tvinfo.Policy
		want   bool
	}{
		{tvinfo.PolicyContent, true},
		{tvinfo.PolicyFlow, false},
	} {
		log := detector.NewLog()
		net := network.New(topology.Line(3), network.Options{Seed: 7})
		opts := testOpts(log)
		opts.Policy = tc.policy
		Attach(protocol.NewSimEnv(net), opts)
		net.Router(1).SetBehavior(&attack.Modifier{Select: attack.All})
		pump(net, 0, 2, 500, 1)
		net.Run(3 * time.Second)
		if got := log.Len() > 0; got != tc.want {
			t.Errorf("policy %v: detected=%v, want %v", tc.policy, got, tc.want)
		}
	}
}

func TestReorderingDetectedOnlyByOrderPolicy(t *testing.T) {
	for _, tc := range []struct {
		policy tvinfo.Policy
		want   bool
	}{
		{tvinfo.PolicyOrder, true},
		{tvinfo.PolicyContent, false},
	} {
		log := detector.NewLog()
		net := network.New(topology.Line(3), network.Options{Seed: 8})
		opts := testOpts(log)
		opts.Policy = tc.policy
		opts.Thresholds.Reorder = 5
		Attach(protocol.NewSimEnv(net), opts)
		net.Router(1).SetBehavior(&attack.Delayer{
			Select: attack.All, Jitter: 20 * time.Millisecond, Rng: rand.New(rand.NewSource(2)),
		})
		// Confine traffic to the interior of round 0 so the jitter cannot
		// displace packets across a round boundary: the attack is then
		// *pure* reordering, invisible to content validation.
		for i := 0; i < 800; i++ {
			i := i
			net.Scheduler().At(100*time.Millisecond+time.Duration(i)*250*time.Microsecond, func() {
				net.Inject(0, &packet.Packet{Dst: 2, Size: 500, Flow: 1, Seq: uint32(i), Payload: uint64(i)})
			})
		}
		net.Run(3 * time.Second)
		if got := log.Len() > 0; got != tc.want {
			t.Errorf("policy %v: detected=%v, want %v", tc.policy, got, tc.want)
		}
	}
}

func TestFabricationDetected(t *testing.T) {
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{Seed: 9})
	Attach(protocol.NewSimEnv(net), testOpts(log))
	attack.NewFabricator(net, 1, 0, 2, 700, 5*time.Millisecond)
	pump(net, 0, 2, 300, 1)
	net.Run(3 * time.Second)
	if log.Len() == 0 {
		t.Fatal("fabrication not detected")
	}
}

func TestProtocolFaultySummarySuppression(t *testing.T) {
	// The middle router forwards all data correctly but drops the summary
	// exchange: the ends time out and suspect the segment.
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{Seed: 10})
	Attach(protocol.NewSimEnv(net), testOpts(log))
	net.Router(1).SetBehavior(&attack.ControlDropper{Kinds: map[string]bool{KindSummary: true}})
	pump(net, 0, 2, 100, 1)
	net.Run(2 * time.Second)

	found := false
	for _, s := range log.All() {
		if s.Kind == detector.KindExchangeTimeout && s.Segment.Contains(1) {
			found = true
		}
	}
	if !found {
		t.Fatalf("summary suppression not detected: %v", log.All())
	}
}

func TestConsortingRoutersK2(t *testing.T) {
	// Line 0-1-2-3 with AdjacentFault(2): router 1 drops traffic and its
	// accomplice 2 lies in its summaries to hide it. The 3-segment
	// ⟨0,1,2⟩ validation is fooled by 2's lie, but the 4-segment
	// ⟨0,1,2,3⟩ between correct ends 0 and 3 cannot be fooled.
	log := detector.NewLog()
	net := network.New(topology.Line(4), network.Options{Seed: 11})
	opts := testOpts(log)
	opts.K = 2
	p := Attach(protocol.NewSimEnv(net), opts)

	net.Router(1).SetBehavior(&attack.Dropper{Select: attack.ByFlow(1), P: 1})
	// Router 2 (sink end of ⟨0,1,2⟩) claims to have received everything
	// the source end sent — it can't know the true fingerprints, but as a
	// consort it could replay them if routers 1 and 2 share information.
	// Model the strongest consorting lie: 2 suppresses its own honest
	// summaries entirely and echoes nothing, sending "all is well" empty
	// summaries matched by claiming zero traffic... which TV would catch.
	// The realistic consorting lie is: 2 reports exactly what 0 reports.
	// Since 1 tells 2 what it dropped, 2 can reconstruct the full set; we
	// model it by letting the corruptor see the dropped packets via the
	// network hasher. Here we approximate with the strongest lie: report
	// what the source end would report. For the ⟨0,1,2⟩ segment whose
	// source is 0, that is everything 0 sent — which 2 cannot fabricate
	// without the content, but consorts share it.
	hasher := net.Hasher()
	sentByZero := make(map[int]*tvinfo.Summary)
	net.Router(0).AddTap(func(ev network.Event) {
		if ev.Kind == network.EvDequeue && ev.Peer == 1 {
			n := int((ev.Time + 3*time.Millisecond) / testRound)
			s := sentByZero[n]
			if s == nil {
				s = tvinfo.NewSummary(tvinfo.PolicyContent)
				sentByZero[n] = s
			}
			s.Record(hasher.Fingerprint(ev.Packet), ev.Packet.Size)
		}
	})
	p.SetCorruptor(2, func(seg topology.Segment, round int, s *tvinfo.Summary) *tvinfo.Summary {
		if len(seg) == 3 && seg[0] == 0 && seg[2] == 2 {
			if forged := sentByZero[round]; forged != nil {
				return forged
			}
			return tvinfo.NewSummary(tvinfo.PolicyContent)
		}
		return s
	})

	pump(net, 0, 3, 1000, 1)
	net.Run(4 * time.Second)

	if log.Len() == 0 {
		t.Fatal("consorting attack not detected")
	}
	gt := detector.NewGroundTruth([]packet.NodeID{1}, []packet.NodeID{2})
	if v := detector.CheckAccuracy(log, gt, 4); len(v) != 0 {
		t.Fatalf("accuracy violations: %v", v)
	}
	// The 4-segment between correct ends must be among the suspicions.
	want := topology.Segment{0, 1, 2, 3}
	found := false
	for _, seg := range log.Segments() {
		if topology.Key(seg) == topology.Key(want) {
			found = true
		}
	}
	if !found {
		t.Fatalf("segment %v not suspected; suspected: %v", want, log.Segments())
	}
	if pr := detector.Precision(log); pr > 4 {
		t.Fatalf("precision %d exceeds k+2=4", pr)
	}
}

func TestSamplingStillDetects(t *testing.T) {
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{Seed: 12})
	opts := testOpts(log)
	opts.Sampling = 0.25
	Attach(protocol.NewSimEnv(net), opts)
	net.Router(1).SetBehavior(&attack.Dropper{Select: attack.All, P: 1})
	pump(net, 0, 2, 1000, 1)
	net.Run(3 * time.Second)
	if log.Len() == 0 {
		t.Fatal("drop attack not detected under 25% sampling")
	}
}

func TestSamplingNoFalsePositives(t *testing.T) {
	log := detector.NewLog()
	net := network.New(topology.Line(4), network.Options{Seed: 13, ProcessingJitter: 100 * time.Microsecond})
	opts := testOpts(log)
	opts.Sampling = 0.25
	Attach(protocol.NewSimEnv(net), opts)
	pump(net, 0, 3, 1500, 1)
	net.Run(3 * time.Second)
	if log.Len() != 0 {
		t.Fatalf("sampling false positives: %v", log.All())
	}
}

func TestResponseSinkInvoked(t *testing.T) {
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{Seed: 14})
	opts := testOpts(log)
	var responses []topology.Segment
	opts.Sink = detector.Tee(opts.Sink, func(s detector.Suspicion) {
		responses = append(responses, s.Segment)
	})
	Attach(protocol.NewSimEnv(net), opts)
	net.Router(1).SetBehavior(&attack.Dropper{Select: attack.All, P: 1})
	pump(net, 0, 2, 300, 1)
	net.Run(3 * time.Second)
	if len(responses) == 0 {
		t.Fatal("response sink never invoked")
	}
}

func TestDelayDetectedOnlyByTimelinessPolicy(t *testing.T) {
	// A constant 30 ms delay at the middle router preserves content and
	// order; only conservation of timeliness catches it (§2.4.1).
	for _, tc := range []struct {
		policy tvinfo.Policy
		want   bool
	}{
		{tvinfo.PolicyTimeliness, true},
		{tvinfo.PolicyContent, false},
	} {
		log := detector.NewLog()
		net := network.New(topology.Line(3), network.Options{Seed: 17})
		opts := testOpts(log)
		opts.Policy = tc.policy
		opts.Thresholds.MaxDelay = 10 * time.Millisecond
		opts.Thresholds.Late = 2
		Attach(protocol.NewSimEnv(net), opts)
		net.Router(1).SetBehavior(&attack.Delayer{Select: attack.DataOnly, Delay: 30 * time.Millisecond})
		// Traffic confined to round interiors so the delay cannot displace
		// packets across bins (which content validation would notice).
		for i := 0; i < 300; i++ {
			i := i
			net.Scheduler().At(100*time.Millisecond+time.Duration(i)*time.Millisecond, func() {
				net.Inject(0, &packet.Packet{Dst: 2, Size: 500, Flow: 1, Seq: uint32(i), Payload: uint64(i)})
			})
		}
		net.Run(3 * time.Second)
		if got := log.Len() > 0; got != tc.want {
			t.Errorf("policy %v: detected=%v, want %v (%v)", tc.policy, got, tc.want, log.All())
		}
	}
}

func TestTimelinessNoFalsePositives(t *testing.T) {
	log := detector.NewLog()
	net := network.New(topology.Line(4), network.Options{Seed: 18, ProcessingJitter: 200 * time.Microsecond})
	opts := testOpts(log)
	opts.Policy = tvinfo.PolicyTimeliness
	opts.Thresholds.MaxDelay = 10 * time.Millisecond
	opts.Thresholds.Late = 2
	Attach(protocol.NewSimEnv(net), opts)
	pump(net, 0, 3, 2000, 1)
	net.Run(4 * time.Second)
	if log.Len() != 0 {
		t.Fatalf("timeliness false positives: %v", log.All())
	}
}

// TestAlertAdmissionAllocFree: an announcement the receiver refuses or has
// already adopted costs it no allocation — onAlert reads the flooded key
// in place and decodes only what it adopts. Router 0 of a 4-line adopts
// 2's ⟨1,2,3⟩, then hears a payload that names no segment, a segment
// whose announcer is not on it, and ⟨1,2,3⟩ again from 1.
func TestAlertAdmissionAllocFree(t *testing.T) {
	log := detector.NewLog()
	net := network.New(topology.Line(4), network.Options{Seed: 1})
	p := Attach(protocol.NewSimEnv(net), testOpts(log))
	a := p.agents[0]
	suspected := topology.AppendKey(nil, topology.Segment{1, 2, 3})
	a.onAlert(consensus.Msg{Origin: 2, Topic: TopicAlert, Instance: "1", Payload: suspected})
	if log.Len() != 1 {
		t.Fatalf("router 0 adopted %d suspicions of 2's announcement, want 1", log.Len())
	}
	for _, tc := range []struct {
		name string
		m    consensus.Msg
	}{
		{"unknown", consensus.Msg{Origin: 2, Topic: TopicAlert, Instance: "1", Payload: suspected[:10]}},
		{"non-member", consensus.Msg{Origin: 3, Topic: TopicAlert, Instance: "1",
			Payload: topology.AppendKey(nil, topology.Segment{0, 1, 2})}},
		{"already-suspected", consensus.Msg{Origin: 1, Topic: TopicAlert, Instance: "2", Payload: suspected}},
	} {
		if n := testing.AllocsPerRun(100, func() { a.onAlert(tc.m) }); n != 0 {
			t.Errorf("%s alert allocates %v at its receiver, want 0", tc.name, n)
		}
	}
	if log.Len() != 1 {
		t.Fatalf("router 0 holds %d suspicions, want the 1 it adopted", log.Len())
	}
}

// TestAdoptedDetailFormattedOnce: every router adopting one origin's
// announcement records the Detail the fmt form gives, "announced by r2",
// and all of them share one string, formatted at the first adoption.
func TestAdoptedDetailFormattedOnce(t *testing.T) {
	log := detector.NewLog()
	net := network.New(topology.Line(5), network.Options{Seed: 1})
	p := Attach(protocol.NewSimEnv(net), testOpts(log))
	m := consensus.Msg{Origin: 2, Topic: TopicAlert, Instance: "1",
		Payload: topology.AppendKey(nil, topology.Segment{1, 2, 3})}
	for _, r := range []int{0, 4} {
		p.agents[r].onAlert(m)
	}
	all := log.All()
	if len(all) != 2 {
		t.Fatalf("adopted %d suspicions, want 2: %v", len(all), all)
	}
	for _, s := range all {
		if want := fmt.Sprintf("announced by %v", packet.NodeID(2)); s.Detail != want {
			t.Errorf("router %v recorded Detail %q, want %q", s.By, s.Detail, want)
		}
	}
	if unsafe.StringData(all[0].Detail) != unsafe.StringData(all[1].Detail) {
		t.Error("each adopting router formatted its own Detail")
	}
}
