// Package pik2 implements Protocol Πk+2 (§5.2): the complete, accurate
// failure detector with precision k+2 that validates traffic per
// path-segment *ends* — the protocol the paper argues is cheap enough for
// practical deployment and the one its Fatih prototype runs.
//
// Under AdjacentFault(k), every router monitors each x-path-segment
// (3 ≤ x ≤ k+2) of which it is an end. Per validation round τ, the two ends
// of each monitored segment π collect traffic summaries for the traffic
// that traverses π, exchange them — signed — through π itself within a
// timeout µ, and evaluate a conservation-of-traffic predicate. Silence is
// the empty summary: an end that recorded nothing sends nothing, and an end
// that hears nothing within µ validates its own record against ∅. A failed
// validation — against the peer's summary, or against ∅ because the summary
// an end with traffic to report would have sent never came — makes the end
// suspect π and reliably broadcast the signed suspicion, so every correct
// router eventually suspects π: strong completeness with precision k+2.
// (DESIGN.md "Segment monitor" has the argument, and the one behaviour it
// changes: a router that only eats control messages on a segment whose ends
// hold no more than the thresholds is not suspected there.)
package pik2

import (
	"encoding/binary"
	"time"

	"routerwatch/internal/auth"
	"routerwatch/internal/consensus"
	"routerwatch/internal/detector"
	"routerwatch/internal/detector/tvinfo"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/summary"
	"routerwatch/internal/topology"
)

// Control-plane message kinds.
const (
	// KindSummary carries a signed per-segment traffic summary between
	// segment ends, pinned through the segment itself.
	KindSummary = "pik2/summary"
	// TopicAlert floods signed suspicions.
	TopicAlert = "pik2/alert"
)

// ExchangeMode selects how segment ends transfer their traffic summaries.
type ExchangeMode int

// Exchange modes.
const (
	// ExchangeFull sends the complete summary (counter + fingerprint
	// multiset [+ order]): simple, bandwidth ∝ traffic.
	ExchangeFull ExchangeMode = iota
	// ExchangeReconcile sends only the counter and characteristic-
	// polynomial evaluations of the fingerprint set (Appendix A): the
	// peer reconciles the sets and recovers the exact difference,
	// bandwidth ∝ the difference bound, independent of traffic volume
	// ("optimal in bandwidth utilization", §2.4.1). PolicyContent only.
	ExchangeReconcile
)

// Options configures the protocol.
type Options struct {
	// K is the AdjacentFault(k) bound; monitored segments have length up
	// to K+2. Default 1.
	K int
	// Round is the validation interval τ. Default 5 s (the Fatih setting).
	Round time.Duration
	// Timeout is the exchange timeout µ after a round boundary. Default 1 s.
	Timeout time.Duration
	// Policy selects the TV predicate. Default PolicyContent.
	Policy tvinfo.Policy
	// Thresholds tolerate benign anomalies per segment-round: Loss covers
	// boundary jitter, and the static congestion allowance the paper
	// criticizes in §6.1.1 also lives there for lossy topologies.
	Thresholds tvinfo.Thresholds
	// Sampling, in (0,1), monitors only a keyed hash-range subsample per
	// segment (§5.2.1); 0 or ≥1 monitors everything.
	Sampling float64
	// Exchange selects the summary transfer encoding.
	Exchange ExchangeMode
	// Sink receives every suspicion raised or accepted by any router; tee
	// routing.(*Protocol).Respond in to close the response loop.
	Sink detector.Sink
}

func (o *Options) fill() {
	if o.K < 1 {
		o.K = 1
	}
	if o.Round == 0 {
		o.Round = 5 * time.Second
	}
	if o.Timeout == 0 {
		o.Timeout = time.Second
	}
	if o.Policy == 0 {
		o.Policy = tvinfo.PolicyContent
	}
	if o.Sink == nil {
		o.Sink = func(detector.Suspicion) {}
	}
	if o.Exchange == ExchangeReconcile && o.Policy != tvinfo.PolicyContent {
		panic("pik2: ExchangeReconcile requires PolicyContent")
	}
}

// Corruptor lets tests install protocol-faulty reporting at a router: it
// may mutate the summary it is about to send for a segment (the empty one,
// for a round it recorded nothing in), or return nil to not send (§2.2.1
// "announcing incorrect reports" / not participating). A summary it leaves
// or makes empty is not sent either: silence is the empty summary.
// Traffic-faulty behaviour is modeled in internal/attack;
// this hook models protocol-faulty behaviour.
type Corruptor func(seg topology.Segment, round int, s *tvinfo.Summary) *tvinfo.Summary

// Protocol is a running Πk+2 deployment.
type Protocol struct {
	env   protocol.Env
	opts  Options
	flood *consensus.Service
	rec   tvinfo.Recording
	// agents is indexed by router ID, in env.Nodes() order.
	agents []*agent
	tel    detector.Instruments

	// recPts caches the shared reconciliation points; bodyBuf is the
	// reusable signed-body scratch all agents encode into (per-Protocol,
	// single-threaded like the simulation that drives it).
	recPts  []uint64
	bodyBuf []byte
	// reversed is the chunk the sink ends' exchange paths are carved from.
	reversed []packet.NodeID
	// announced holds, by router ID, the Detail of suspicions adopted from
	// that router's announcements, each formatted at its first use.
	announced []string
	// adopted holds, by segment key, the key string and decoded segment
	// every router adopting an announcement of that segment shares
	// (read-only), each made at the segment's first adoption.
	adopted map[topology.SegmentKey]adoption

	// msgs and slots are the uncut rests of the append-only chunks sent
	// summary messages and the segment states' peerMsgs are carved from,
	// msgs one round's messages at a time. A carved message is never
	// reused: its peer holds it until its judge, and beyond.
	msgs  []SummaryMsg
	slots []*SummaryMsg
	// empty is the read-only empty summary a round is judged against when
	// one end has nothing of it.
	empty *tvinfo.Summary
}

// adoption is an announced segment, as every router adopting it shares it.
type adoption struct {
	key topology.SegmentKey
	seg topology.Segment
}

// msgChunk sizes the Protocol's chunks of summary messages: 68 messages of
// 120 bytes fill an 8 KB size class, where each alone was rounded to 128.
// slotChunk sizes its chunks of peerMsgs backing arrays, peerWindow
// messages each (Recording.Admits bounds a segment state to two rounds).
const (
	msgChunk   = 68
	slotChunk  = 512
	peerWindow = 2
)

// carveMsg returns a zeroed summary message cut from the Protocol's chunks.
func (p *Protocol) carveMsg() *SummaryMsg {
	if len(p.msgs) == 0 {
		p.msgs = make([]SummaryMsg, msgChunk)
	}
	m := &p.msgs[0]
	p.msgs = p.msgs[1:]
	return m
}

// carveSlots returns an empty peerMsgs list with room for peerWindow
// messages, cut from the Protocol's chunks.
func (p *Protocol) carveSlots() []*SummaryMsg {
	if len(p.slots) < peerWindow {
		p.slots = make([]*SummaryMsg, slotChunk*peerWindow)
	}
	l := p.slots[:0:peerWindow]
	p.slots = p.slots[peerWindow:]
	return l
}

// Attach deploys Πk+2 on every router of the environment. Monitored
// segments are derived from the deterministic routing paths of the current
// topology (§4.1: paths are predictable in the stable state), and the same
// path table predicts which of them each packet follows.
func Attach(env protocol.Env, opts Options) *Protocol {
	opts.fill()
	paths := env.Graph().CSR().Paths()

	p := &Protocol{
		env:     env,
		opts:    opts,
		flood:   env.Flood(),
		tel:     detector.NewInstruments(env.Telemetry(), "pik2"),
		adopted: make(map[topology.SegmentKey]adoption),
		empty:   tvinfo.NewSummary(opts.Policy),
	}
	p.rec = tvinfo.Recording{
		Env:          env,
		Oracle:       paths,
		Segments:     topology.MonitorSets(paths, opts.K, topology.ModeEnds),
		Policy:       opts.Policy,
		Round:        opts.Round,
		Sampling:     opts.Sampling,
		Fingerprints: p.tel.Fingerprints,
		RouteFills:   p.tel.RouteFills,
		RouteResets:  p.tel.RouteResets,
	}
	nodes := env.Nodes()
	p.agents = make([]*agent, 0, len(nodes))
	for _, id := range nodes {
		p.agents = append(p.agents, newAgent(p, id))
	}
	p.rec.Drive(opts.Timeout, func(n int) {
		for _, a := range p.agents {
			a.exchangeRound(n)
		}
		// The next round's messages start a chunk of their own, so a chunk
		// never pins a judged round's summaries behind a live message.
		p.msgs = nil
	}, func(n int) {
		for _, a := range p.agents {
			a.judgeRound(n)
		}
	})
	return p
}

// SetCorruptor installs protocol-faulty reporting at router r.
func (p *Protocol) SetCorruptor(r packet.NodeID, c Corruptor) {
	p.agents[r].corrupt = c
}

// RefreshPaths replaces the path table packets are predicted to follow with
// one over explicit routing paths traced from the live forwarding tables
// (which include path-segment exclusions).
func (p *Protocol) RefreshPaths(paths []topology.Path) {
	t := topology.NewPathTable(paths)
	p.rec.Oracle = &t
}

// reconcileBudget bounds the recoverable set difference per segment-round
// under ExchangeReconcile; differences beyond it are themselves conclusive
// TV failures (they exceed both thresholds).
func (p *Protocol) reconcileBudget() int {
	return p.opts.Thresholds.Loss + p.opts.Thresholds.Fabrication + 8
}

// reconcilePoints returns the shared evaluation points (public; secrecy is
// not required, only agreement). One extra point verifies the rational fit.
// The slice is cached; callers must not mutate it.
func (p *Protocol) reconcilePoints() []uint64 {
	if p.recPts == nil {
		p.recPts = summary.ReconcilePoints(p.reconcileBudget() + 2)
	}
	return p.recPts
}

// BandwidthBytes returns the total summary-exchange payload bytes sent by
// all routers so far (§5.2.1/§7 overhead accounting).
func (p *Protocol) BandwidthBytes() int64 {
	var total int64
	for _, a := range p.agents {
		total += a.bytesSent
	}
	return total
}

// SummaryMsg is the exchanged control payload. Under ExchangeFull, Summary
// is set; under ExchangeReconcile, Count and Evals carry the fingerprint
// multiset's size and characteristic-polynomial evaluations instead.
type SummaryMsg struct {
	Seg   topology.Segment
	Round int
	From  packet.NodeID

	Summary *tvinfo.Summary

	Count int
	Evals []uint64

	Sig auth.Signature
}

// WireBytes estimates the message's serialized size, for the §5.2.1/§7
// overhead comparison.
func (m *SummaryMsg) WireBytes() int {
	n := 4*len(m.Seg) + 8 /*round*/ + 4 /*from*/ + 32 /*sig*/
	if m.Summary != nil {
		n += m.Summary.EncodedLen()
	}
	return n + 8 + 8*len(m.Evals)
}

// appendSignedBody appends the byte string the sender signs — the summary
// (or its reconciliation evaluations) bound to its segment, round and
// sender — to b and returns the extended slice. The exchange path reuses
// one per-Protocol buffer through it.
func appendSignedBody(b []byte, m *SummaryMsg) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(m.From))
	b = binary.BigEndian.AppendUint64(b, uint64(m.Round))
	b = topology.AppendKey(b, m.Seg)
	if m.Summary != nil {
		b = m.Summary.AppendEncode(b)
	}
	b = binary.BigEndian.AppendUint64(b, uint64(m.Count))
	for _, e := range m.Evals {
		b = binary.BigEndian.AppendUint64(b, e)
	}
	return b
}
