// Package pi2 implements Protocol Π2 (§5.1): the complete, accurate
// failure detector with precision 2 that validates traffic per
// path-segment *nodes*.
//
// Under AdjacentFault(k), every router monitors every (k+2)-path-segment it
// belongs to (plus shorter whole paths). Per validation round τ, every
// router in a monitored segment π records the traffic it forwarded along π,
// then all routers in π agree on each other's digitally signed summaries
// (signed-value consensus over robust flooding, with equivocation
// detection). Each correct router then evaluates the TV predicate between
// every adjacent pair ⟨i, i+1⟩ in π; a failed pair is suspected with
// precision 2 and the signed evidence is reliably broadcast so every
// correct router adopts the suspicion — strong completeness.
//
// Compared with Πk+2 this costs far more state and communication (Fig 5.2
// vs Fig 5.4) but pinpoints faults to a single link.
package pi2

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"time"

	"routerwatch/internal/consensus"
	"routerwatch/internal/detector"
	"routerwatch/internal/detector/tvinfo"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/topology"
)

// Flooding topics.
const (
	// TopicInfo floods signed per-segment traffic summaries (the
	// consensus input of Fig 5.1).
	TopicInfo = "pi2/info"
	// TopicAlert floods suspicions with their signed evidence.
	TopicAlert = "pi2/alert"
)

// Options configures the protocol.
type Options struct {
	// K is the AdjacentFault(k) bound. Default 1.
	K int
	// Round is the validation interval τ. Default 5 s.
	Round time.Duration
	// Settle is how long after a round boundary consensus is given to
	// complete before judgement. Default 1 s.
	Settle time.Duration
	// Policy selects the TV predicate. Default PolicyContent.
	Policy tvinfo.Policy
	// Thresholds tolerate benign anomalies.
	Thresholds tvinfo.Thresholds
	// Sink receives every suspicion raised or adopted by any router.
	Sink detector.Sink
}

func (o *Options) fill() {
	if o.K < 1 {
		o.K = 1
	}
	if o.Round == 0 {
		o.Round = 5 * time.Second
	}
	if o.Settle == 0 {
		o.Settle = time.Second
	}
	if o.Policy == 0 {
		o.Policy = tvinfo.PolicyContent
	}
	if o.Sink == nil {
		o.Sink = func(detector.Suspicion) {}
	}
}

// Corruptor models protocol-faulty reporting: mutate the summary about to
// be flooded for (seg, round), or return nil to not report. Equivocation is
// modeled with SetEquivocator.
type Corruptor func(seg topology.Segment, round int, s *tvinfo.Summary) *tvinfo.Summary

// Protocol is a running Π2 deployment.
type Protocol struct {
	env   protocol.Env
	opts  Options
	flood *consensus.Service
	rec   tvinfo.Recording
	// agents is indexed by router ID, in env.Nodes() order.
	agents []*agent
	tel    detector.Instruments
	// instBuf is the scratch onInfo decodes an instance's segment into.
	instBuf topology.Segment
}

// Attach deploys Π2 on every router of the environment.
func Attach(env protocol.Env, opts Options) *Protocol {
	opts.fill()
	paths := env.Graph().CSR().Paths()

	p := &Protocol{
		env:   env,
		opts:  opts,
		flood: env.Flood(),
		tel:   detector.NewInstruments(env.Telemetry(), "pi2"),
	}
	p.rec = tvinfo.Recording{
		Env:          env,
		Oracle:       paths,
		Segments:     topology.MonitorSets(paths, opts.K, topology.ModeNodes),
		Policy:       opts.Policy,
		Round:        opts.Round,
		Fingerprints: p.tel.Fingerprints,
		RouteFills:   p.tel.RouteFills,
		RouteResets:  p.tel.RouteResets,
	}
	nodes := env.Nodes()
	p.agents = make([]*agent, 0, len(nodes))
	for _, id := range nodes {
		p.agents = append(p.agents, newAgent(p, id))
	}
	p.rec.Drive(opts.Settle, func(n int) {
		for _, a := range p.agents {
			a.publishRound(n)
		}
	}, func(n int) {
		for _, a := range p.agents {
			a.judgeRound(n)
		}
	})
	return p
}

// SetCorruptor installs protocol-faulty reporting at router r.
func (p *Protocol) SetCorruptor(r packet.NodeID, c Corruptor) { p.agents[r].corrupt = c }

// SetEquivocator makes router r flood two conflicting summaries for every
// segment-round (the consensus attack signed messages defeat).
func (p *Protocol) SetEquivocator(r packet.NodeID) { p.agents[r].equivocate = true }

// infoInstance names the consensus instance for one segment-round.
func infoInstance(seg topology.Segment, round int) string {
	return fmt.Sprintf("%x/%d", topology.AppendKey(nil, seg), round)
}

// infoPayload is the flooded summary encoding: position in segment +
// summary bytes. The consensus layer signs (origin, topic, instance,
// payload), binding router, segment, round and content.
func infoPayload(pos int, s *tvinfo.Summary) []byte {
	b := make([]byte, 4, 4+s.EncodedLen())
	binary.BigEndian.PutUint32(b, uint32(pos))
	return s.AppendEncode(b)
}

// AlertEvidence is the flooded proof of a failed pairwise validation: the
// two conflicting signed summaries (§5.1: "reliable broadcast
// ([info(i)]i, [info(i+1)]i+1)"). Receivers re-verify both signatures and
// re-evaluate TV before adopting the suspicion, so a faulty announcer
// cannot frame a correct pair. Evidence-free alerts (timeouts,
// equivocations) are adopted only under the announcer-membership rule.
type AlertEvidence struct {
	Seg         topology.Segment
	Pair        topology.Segment
	Round       int
	Kind        detector.Kind
	Detail      string
	Announce    packet.NodeID
	HasEvidence bool
	Up, Dn      consensus.Msg
}

// floodAlert serializes and floods an alert.
func (p *Protocol) floodAlert(by packet.NodeID, ev *AlertEvidence) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ev); err != nil {
		panic(fmt.Sprintf("pi2: encoding alert: %v", err))
	}
	inst := infoInstance(ev.Pair, ev.Round)
	p.flood.Flood(by, TopicAlert, inst, buf.Bytes())
}

// decodeAlert parses a flooded alert.
func decodeAlert(b []byte) (*AlertEvidence, bool) {
	var ev AlertEvidence
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&ev); err != nil {
		return nil, false
	}
	return &ev, true
}
