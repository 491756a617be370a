package pik2

import (
	"strings"
	"testing"
	"time"

	"routerwatch/internal/attack"
	"routerwatch/internal/detector"
	"routerwatch/internal/detector/tvinfo"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/telemetry"
	"routerwatch/internal/topology"
)

// segEnd names one end's side of one segment.
type segEnd struct {
	seg topology.SegmentKey
	end packet.NodeID
}

// summaryCounter is router 1 of the line 0-1-2 counting the summaries that
// transit it, per segment and sender, and forwarding all of them.
type summaryCounter map[segEnd]int

func (summaryCounter) OnForward(*network.RouterView, *packet.Packet, packet.NodeID) network.Verdict {
	return network.Verdict{}
}

func (c summaryCounter) OnControl(_ *network.RouterView, m *network.ControlMessage) network.ControlVerdict {
	if msg, ok := m.Payload.(*SummaryMsg); ok {
		c[segEnd{topology.Key(msg.Seg), msg.From}]++
	}
	return network.CtrlForward
}

// TestSilentRoundsSendNothing: with traffic one way along the line 0-1-2 for
// five of ten rounds, the reverse segment ⟨2,1,0⟩ never opens a round and
// never sends; the forward one sends one summary per end per round that end
// recorded traffic in, and nothing for the idle rounds after. Nobody is
// suspected, and the instruments account for every segment-round an end came
// to exchange: summaries + silent = watches × ticks, rounds = the same
// (every one of them is still judged).
func TestSilentRoundsSendNothing(t *testing.T) {
	const rounds = 10
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{
		Seed: 23, Telemetry: &telemetry.Set{Metrics: telemetry.NewRegistry()},
	})
	opts := testOpts(log)
	p := Attach(protocol.NewSimEnv(net), opts)
	sent := summaryCounter{}
	net.Router(1).SetBehavior(sent)
	pump(net, 0, 2, 2400, 1)

	// Round n is exchanged at (n+1)·τ and judged, then closed, µ later:
	// between the two, Recorded(n) is what the end had to report.
	recorded := make(map[segEnd]int)
	for n := 0; n < rounds; n++ {
		net.Scheduler().At(testRound*time.Duration(n+1)+opts.Timeout/2, func() {
			for _, a := range p.agents {
				for _, st := range a.segs {
					if st.Recorded(n) != nil {
						recorded[segEnd{topology.Key(st.Seg), a.id}]++
					}
				}
			}
		})
	}
	net.Run(rounds*testRound + 2*opts.Timeout)

	if log.Len() != 0 {
		t.Fatalf("suspicions without a fault:\n%s", log)
	}
	forward, reverse := topology.Key(topology.Segment{0, 1, 2}), topology.Key(topology.Segment{2, 1, 0})
	for _, end := range []packet.NodeID{0, 2} {
		fwd, rev := segEnd{forward, end}, segEnd{reverse, end}
		if sent[rev]+recorded[rev] != 0 {
			t.Errorf("router %v sent %d summaries and opened %d rounds on the traffic-free reverse segment",
				end, sent[rev], recorded[rev])
		}
		if got, want := sent[fwd], recorded[fwd]; got != want || got < 5 || got >= rounds {
			t.Errorf("router %v sent %d summaries on the forward segment, recorded traffic in %d of %d rounds (5 carried it)",
				end, got, want, rounds)
		}
	}

	watches := 0
	for _, a := range p.agents {
		watches += len(a.segs)
	}
	summaries, silent := p.tel.Summaries.Value(), p.tel.SilentRounds.Value()
	if want := int64(watches * rounds); summaries+silent != want || p.tel.Rounds.Value() != want {
		t.Errorf("%d summaries + %d silent, %d rounds judged; want both %d (%d watches × %d ticks)",
			summaries, silent, p.tel.Rounds.Value(), want, watches, rounds)
	}
	if want := int64(sent[segEnd{forward, 0}] + sent[segEnd{forward, 2}]); summaries != want {
		t.Errorf("rw_detector_summaries_total = %d, %d summaries crossed router 1", summaries, want)
	}
}

// TestFabricationIntoSilentSegmentDetected is the sink's half of the rule:
// router 1 forges traffic from 0 toward 2 on a segment 0 sends nothing
// along, so 0 stays silent and 2 judges its whole record against ∅ as
// fabricated. Loss is set far from Fabrication: timelinessTV bounded
// fabrication by Loss, and under it this went unsuspected.
func TestFabricationIntoSilentSegmentDetected(t *testing.T) {
	for _, policy := range []tvinfo.Policy{tvinfo.PolicyContent, tvinfo.PolicyTimeliness} {
		log := detector.NewLog()
		net := network.New(topology.Line(3), network.Options{Seed: 25})
		opts := testOpts(log)
		opts.Policy = policy
		opts.Thresholds = tvinfo.Thresholds{Loss: 1000, Fabrication: 2, MaxDelay: 10 * time.Millisecond}
		Attach(protocol.NewSimEnv(net), opts)
		attack.NewFabricator(net, 1, 0, 2, 700, 5*time.Millisecond)
		net.Run(2 * testRound)

		// 2 hears nothing about traffic it received; 0 is told of traffic it
		// never sent and validates the claim against a record it never opened.
		want := map[packet.NodeID]detector.Kind{0: detector.KindTrafficValidation, 2: detector.KindExchangeTimeout}
		for _, s := range log.All() {
			if k, ok := want[s.By]; ok && s.Kind == k && topology.Key(s.Segment) == topology.Key(topology.Segment{0, 1, 2}) {
				delete(want, s.By)
			}
		}
		if len(want) != 0 {
			t.Errorf("policy %v: ends still owing a suspicion of ⟨0,1,2⟩: %v\n%s", policy, want, log)
		}
	}
}

// TestSectionlessSummaryFailsValidation: router 2 of the line 0-1-2 reports
// its counter with no fingerprint section after it. onSummary admits any
// signed non-nil Summary, and router 0's judgeRound reached
// FPSet.normalise through the nil pointer. It is a validation failure of
// the segment, which contains the summary's signer.
func TestSectionlessSummaryFailsValidation(t *testing.T) {
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{Seed: 24})
	p := Attach(protocol.NewSimEnv(net), testOpts(log))
	p.SetCorruptor(2, func(_ topology.Segment, _ int, s *tvinfo.Summary) *tvinfo.Summary {
		return &tvinfo.Summary{Counter: s.Counter}
	})
	pump(net, 0, 2, 400, 1)
	net.Run(2 * testRound)

	var raised []detector.Suspicion
	for _, s := range log.All() {
		if s.By == 0 && !strings.HasPrefix(s.Detail, "announced by") {
			raised = append(raised, s)
		}
	}
	if len(raised) != 1 || raised[0].Kind != detector.KindTrafficValidation ||
		!raised[0].Segment.Contains(2) || !strings.Contains(raised[0].Detail, "fingerprint section") {
		t.Fatalf("router 0 raised %v, want one traffic-validation failure of ⟨0,1,2⟩ naming the missing section", raised)
	}
}
