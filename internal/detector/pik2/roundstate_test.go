package pik2

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"routerwatch/internal/detector"
	"routerwatch/internal/detector/tvinfo"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/topology"
)

// summaryHolder is router 1 of the line 0-1-2 holding back one round's
// summary from 0 to 2 until after the exchange timeout: the data plane is
// untouched, the exchange for that round fails, and the summary arrives for
// a round its receiver has already judged.
type summaryHolder struct {
	net   *network.Network
	round int
	hold  time.Duration
}

func (*summaryHolder) OnForward(*network.RouterView, *packet.Packet, packet.NodeID) network.Verdict {
	return network.Verdict{}
}

func (h *summaryHolder) OnControl(_ *network.RouterView, m *network.ControlMessage) network.ControlVerdict {
	msg, ok := m.Payload.(*SummaryMsg)
	if !ok || msg.Round != h.round || msg.From != 0 || m.To != 2 {
		return network.CtrlForward
	}
	h.net.Scheduler().After(h.hold, func() {
		h.net.SendControlDirect(1, 2, KindSummary, msg)
	})
	return network.CtrlDrop
}

// TestPeerMsgsBoundedByRoundWindow is ISSUE 19's second defect: onSummary
// kept every correctly signed summary whatever its round, so a summary
// delayed past µ stayed (with its Summary) for the rest of the run and a
// protocol-faulty peer could grow every correct receiver without bound by
// signing rounds far in the future. Here the real peer of ⟨0,1,2⟩ does
// both over ten rounds; the receiver must end the run holding no more than
// the rounds in flight, with the verdicts of the run without the forgeries.
func TestPeerMsgsBoundedByRoundWindow(t *testing.T) {
	const forgeries = 1000
	run := func(forge bool) (string, *Protocol) {
		log := detector.NewLog()
		net := network.New(topology.Line(3), network.Options{Seed: 21})
		env := protocol.NewSimEnv(net)
		p := Attach(env, testOpts(log))
		net.Router(1).SetBehavior(&summaryHolder{net: net, round: 3, hold: 300 * time.Millisecond})
		if forge {
			seg := topology.Segment{0, 1, 2}
			net.Scheduler().At(1100*time.Millisecond, func() {
				for i := 0; i < forgeries; i++ {
					msg := &SummaryMsg{Seg: seg, Round: 1000 + i, From: 0, Summary: tvinfo.NewSummary(tvinfo.PolicyContent)}
					msg.Sig = net.Auth().Sign(0, appendSignedBody(nil, msg))
					env.SendControl(network.ControlMessage{
						From: 0, To: 2, Kind: KindSummary, Payload: msg, Path: topology.Path(seg),
					})
				}
			})
		}
		pump(net, 0, 2, 4800, 1)
		net.Run(10*testRound + 200*time.Millisecond)
		return log.String(), p
	}

	want, _ := run(false)
	if !strings.Contains(want, detector.KindExchangeTimeout.String()) {
		t.Fatalf("the held summary did not time its round out:\n%s", want)
	}
	got, p := run(true)
	if got != want {
		t.Errorf("transcript with %d far-future forgeries:\n%s\nwithout:\n%s", forgeries, got, want)
	}
	for _, a := range p.agents {
		for _, st := range a.segs {
			if n := len(st.peerMsgs); n > 2 {
				t.Errorf("router %v holds %d peer messages for %v after the run, want at most 2", a.id, n, st.Seg)
			}
		}
	}
}

// TestSentSummaryNeverReused pins the ownership rule of the round state: a
// Summary put into a SummaryMsg is shared by pointer with the peer, so
// nothing reachable from it may be reset or recycled by its sender — not by
// Close, not by later rounds growing their lanes. The receiver's copy of a
// round-1 message is held across the sender's Close(1) and two further
// rounds of traffic and must still encode, and verify, as it did.
func TestSentSummaryNeverReused(t *testing.T) {
	net := network.New(topology.Line(3), network.Options{Seed: 22})
	p := Attach(protocol.NewSimEnv(net), testOpts(detector.NewLog()))
	pump(net, 0, 2, 2400, 1)

	var held *SummaryMsg
	var body []byte
	// Round 1's messages leave at 2·τ and are judged (and closed) µ later.
	net.Scheduler().At(2*testRound+testOpts(nil).Timeout/2, func() {
		for _, st := range p.agents[2].segs {
			for _, msg := range st.peerMsgs {
				// 0 is router 2's peer on ⟨0,1,2⟩ and on ⟨2,1,0⟩; the
				// traffic runs along the first.
				if msg.Round == 1 && msg.Summary.FPs.Len() > 0 {
					held, body = msg, appendSignedBody(nil, msg)
				}
			}
		}
	})
	net.Run(4*testRound + 200*time.Millisecond)

	if held == nil {
		t.Fatal("no round-1 summary with traffic in it reached router 2")
	}
	sender := p.agents[0]
	i, ok := sender.mon.Find(held.Seg)
	if !ok {
		t.Fatalf("the sender does not watch %v", held.Seg)
	}
	if p.rec.Admits(3) {
		t.Fatal("the deployment judged fewer than four rounds: want round 1 closed and two more rounds past")
	}
	if sender.segs[i].Recorded(1) != nil {
		t.Fatal("the sender still holds round 1 after judging it")
	}
	if now := appendSignedBody(nil, held); !bytes.Equal(now, body) {
		t.Fatalf("the held round-1 message encodes differently after the sender's later rounds (%d bytes, was %d)", len(now), len(body))
	}
	if !net.Auth().Verify(body, held.Sig) {
		t.Fatal("the held message no longer verifies")
	}
}

// TestOneRoundClock: the deployment has one round clock, not one per
// router. Attached to a traffic-free line of five routers, Πk+2 leaves one
// pending event, and R idle rounds, in which nothing is recorded and so
// nothing is sent, fire 2R: each boundary once and each judge once.
func TestOneRoundClock(t *testing.T) {
	const rounds = 6
	net := network.New(topology.Line(5), network.Options{Seed: 26})
	opts := testOpts(detector.NewLog())
	Attach(protocol.NewSimEnv(net), opts)
	s := net.Scheduler()
	if n := s.Pending(); n != 1 {
		t.Fatalf("Attach left %d events pending, want 1", n)
	}
	before := s.Fired()
	net.Run(rounds*testRound + opts.Timeout)
	if got := s.Fired() - before; got != 2*rounds {
		t.Fatalf("%d idle rounds fired %d events, want %d", rounds, got, 2*rounds)
	}
}
