package pik2

import (
	"fmt"
	"slices"
	"strconv"

	"routerwatch/internal/consensus"
	"routerwatch/internal/detector"
	"routerwatch/internal/detector/tvinfo"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/summary"
	"routerwatch/internal/topology"
)

// segState is per-(router, monitored segment) state: the shared recording
// half plus what Πk+2's end-to-end exchange and judging add. The router is
// the segment's source when Pos == 0 and its sink otherwise.
type segState struct {
	tvinfo.Watch

	// peer is the segment's other end, and path the segment as the exchange
	// travels it from here to there (read-only: every round's message
	// shares it).
	peer packet.NodeID
	path topology.Path
	// peerMsgs holds the verified summary messages received from the peer
	// for rounds still to be judged, at most one per round. onSummary
	// admits only the rounds Recording.Admits does, so the list stays a
	// couple of entries long whatever the peer signs.
	peerMsgs []*SummaryMsg
}

// takePeerMsg removes and returns the peer's message for round n, nil if
// none arrived.
func (st *segState) takePeerMsg(n int) *SummaryMsg {
	for i, msg := range st.peerMsgs {
		if msg.Round == n {
			st.peerMsgs = slices.Delete(st.peerMsgs, i, i+1)
			return msg
		}
	}
	return nil
}

// agent is the per-router protocol engine.
type agent struct {
	p   *Protocol
	id  packet.NodeID
	mon tvinfo.Monitor

	// segs is indexed by watch order: mon.Find's answer.
	segs []segState

	corrupt Corruptor

	// suspected dedupes this agent's suspicions per segment.
	suspected map[topology.SegmentKey]bool

	// bytesSent accumulates summary-exchange payload bytes (§5.2.1/§7
	// overhead accounting).
	bytesSent int64

	// keyBuf is the scratch a suspected segment's key is built in.
	keyBuf []byte
}

// reversedChunk sizes the Protocol's chunks of reversed exchange paths.
const reversedChunk = 4096

func newAgent(p *Protocol, id packet.NodeID) *agent {
	a := &agent{
		p:         p,
		id:        id,
		suspected: make(map[topology.SegmentKey]bool),
	}
	a.mon.Start(&p.rec, id)
	monitored := p.rec.Segments.Monitored(id)
	a.segs = make([]segState, len(monitored))
	n := 0
	for _, sid := range monitored {
		st := &a.segs[n]
		if !a.mon.Watch(&st.Watch, sid) {
			continue
		}
		n++
		// The exchange travels through π itself (§5.2.1): source→sink
		// along the segment, sink→source along its reverse.
		seg := st.Seg
		st.peer, st.path = seg[len(seg)-1], topology.Path(seg)
		if st.Pos != 0 {
			st.peer, st.path = seg[0], p.reverse(seg)
		}
	}
	a.segs = a.segs[:n]

	p.env.HandleControl(a.id, KindSummary, a.onSummary)
	p.flood.Subscribe(a.id, TopicAlert, a.onAlert)
	return a
}

// reverse returns seg reversed, carved from the Protocol's chunks.
func (p *Protocol) reverse(seg topology.Segment) topology.Path {
	if cap(p.reversed)-len(p.reversed) < len(seg) {
		p.reversed = make([]packet.NodeID, 0, max(reversedChunk, len(seg)))
	}
	start := len(p.reversed)
	p.reversed = append(p.reversed, seg...)
	path := topology.Path(p.reversed[start:len(p.reversed):len(p.reversed)])
	slices.Reverse(path)
	return path
}

// exchangeRound sends this router's summary for round n, through the segment
// itself, on every monitored segment that recorded a packet. Silence is the
// empty summary: a segment-round with nothing in it (after the Corruptor, if
// any) is not allocated, signed, sent, relayed or verified, and the peer
// judges hearing nothing as having been told ∅. Each message is encoded into
// the Protocol's one signing buffer, signed and sent before the next is
// encoded, so the buffer only ever holds one summary body.
func (a *agent) exchangeRound(n int) {
	sent := 0
	for i := range a.segs {
		st := &a.segs[i]
		s := st.Recorded(n)
		if a.corrupt != nil {
			// Protocol faulty: reports what it likes, or (nil) nothing.
			s = a.corrupt(st.Seg, n, st.Summary(n))
		}
		if s == nil || s.Empty() {
			a.p.tel.SilentRounds.Inc()
			continue
		}
		msg := a.p.carveMsg()
		msg.Seg, msg.Round, msg.From = st.Seg, n, a.id
		if a.p.opts.Exchange == ExchangeReconcile {
			fps := fpMultiset(s)
			msg.Count = len(fps)
			msg.Evals = summary.EvaluateCharPoly(fps, a.p.reconcilePoints())
		} else {
			msg.Summary = s
		}
		a.p.bodyBuf = appendSignedBody(a.p.bodyBuf[:0], msg)
		msg.Sig = a.p.env.Auth().Sign(a.id, a.p.bodyBuf)
		wire := int64(msg.WireBytes())
		a.bytesSent += wire
		a.p.tel.Summaries.Inc()
		a.p.tel.SummaryBytes.Add(wire)
		a.p.env.SendControl(network.ControlMessage{
			From: a.id, To: st.peer, Kind: KindSummary,
			Payload: msg, Path: st.path,
		})
		sent++
	}
	if sent > 0 {
		a.p.tel.BatchEntries.Observe(int64(sent))
	}
}

// onSummary receives a peer's summary.
func (a *agent) onSummary(cm *network.ControlMessage) {
	msg, ok := cm.Payload.(*SummaryMsg)
	if !ok {
		return
	}
	if a.p.opts.Exchange == ExchangeReconcile {
		if msg.Evals == nil {
			return
		}
	} else if msg.Summary == nil {
		return
	}
	i, ok := a.mon.Find(msg.Seg)
	if !ok {
		return
	}
	st := &a.segs[i]
	if msg.From != st.peer {
		return
	}
	if !a.p.rec.Admits(msg.Round) {
		return
	}
	a.p.bodyBuf = appendSignedBody(a.p.bodyBuf[:0], msg)
	if !a.p.env.Auth().Verify(a.p.bodyBuf, msg.Sig) || msg.Sig.Signer != msg.From {
		return
	}
	for i, prev := range st.peerMsgs {
		if prev.Round == msg.Round {
			st.peerMsgs[i] = msg
			return
		}
	}
	if st.peerMsgs == nil {
		st.peerMsgs = a.p.carveSlots()
	}
	prev := st.peerMsgs
	st.peerMsgs = append(st.peerMsgs, msg)
	if len(prev) == cap(prev) {
		// The append moved the list out of its carve (a timeout µ ≥ τ
		// admits a third round): what it left behind must not pin the
		// messages it held.
		clear(prev)
	}
}

// judgeRound runs at round boundary + µ: TV failures become suspicions,
// against the peer's summary or, when none came, against ∅.
func (a *agent) judgeRound(n int) {
	for i := range a.segs {
		st := &a.segs[i]
		a.p.tel.Rounds.Inc()
		local := st.Recorded(n)
		st.Close(n)
		peer := st.takePeerMsg(n)

		if peer == nil {
			// Nothing from the peer within µ is the peer's ∅. A local record
			// the TV predicate passes against ∅ (nothing, or a boundary
			// straggler or two) leaves nothing to suspect. One it fails says
			// traffic or a summary was lost inside π — the peer would have
			// reported what it saw — so some router in π, or the peer, is
			// faulty: suspect π (Fig 5.3).
			if local != nil && !a.validate(st, local, a.p.empty).OK {
				a.suspect(st, n, detector.KindExchangeTimeout, 1,
					fmt.Sprintf("no summary from %v within %v", st.peer, a.p.opts.Timeout))
			}
			continue
		}
		if local == nil {
			local = a.p.empty
		}
		if a.p.opts.Exchange == ExchangeReconcile {
			a.judgeReconcile(st, n, local, peer)
			continue
		}
		if res := a.validate(st, local, peer.Summary); !res.OK {
			a.suspect(st, n, detector.KindTrafficValidation, 1, res.String())
		}
	}
	if len(a.segs) > 0 {
		a.p.tel.RoundSpan("pik2 round", n, a.p.opts.Round, a.p.env.Now(), int32(a.id))
	}
}

// validate applies the TV predicate between this end's summary of st's
// segment and the peer's, whichever of the two is upstream.
func (a *agent) validate(st *segState, local, peer *tvinfo.Summary) tvinfo.Result {
	up, down := local, peer
	if st.Pos != 0 {
		up, down = peer, local
	}
	return tvinfo.Validate(a.p.opts.Policy, a.p.opts.Thresholds, up, down)
}

// judgeReconcile validates via Appendix A's set reconciliation: the exact
// multiset difference between the two ends' fingerprint sets is recovered
// from the peer's characteristic-polynomial evaluations and the local set.
func (a *agent) judgeReconcile(st *segState, n int, local *tvinfo.Summary, peer *SummaryMsg) {
	points := a.p.reconcilePoints()
	localFPs := fpMultiset(local)
	localEvals := summary.EvaluateCharPoly(localFPs, points)

	var upEvals, downEvals []uint64
	var upCount, downCount int
	if st.Pos == 0 {
		upEvals, upCount = localEvals, len(localFPs)
		downEvals, downCount = peer.Evals, peer.Count
	} else {
		upEvals, upCount = peer.Evals, peer.Count
		downEvals, downCount = localEvals, len(localFPs)
	}
	// The peer signed whatever it sent, so a malformed message is a
	// validation failure of a segment that contains its signer.
	if len(peer.Evals) != len(points) {
		a.suspect(st, n, detector.KindTrafficValidation, 1, "malformed reconciliation evaluations")
		return
	}
	if peer.Count < 0 {
		a.suspect(st, n, detector.KindTrafficValidation, 1,
			fmt.Sprintf("negative reconciliation set size %d", peer.Count))
		return
	}
	onlyUp, onlyDown, err := summary.Reconcile(upEvals, downEvals, points, upCount, downCount)
	if err != nil {
		// The set difference exceeds the budget, which itself exceeds the
		// loss/fabrication thresholds: conclusive validation failure.
		a.suspect(st, n, detector.KindTrafficValidation, 1,
			fmt.Sprintf("set difference exceeds reconciliation budget %d: %v",
				a.p.reconcileBudget(), err))
		return
	}
	lost, fabricated := len(onlyUp), len(onlyDown)
	if th := a.p.opts.Thresholds; lost > th.Loss || fabricated > th.Fabrication {
		a.suspect(st, n, detector.KindTrafficValidation, 1,
			fmt.Sprintf("reconciled difference: %d lost, %d fabricated", lost, fabricated))
	}
}

// fpMultiset expands a summary's fingerprint multiset into field elements.
func fpMultiset(s *tvinfo.Summary) []uint64 {
	if s.FPs == nil {
		return nil
	}
	return s.FPs.AppendMultiset(make([]uint64, 0, s.FPs.Len()))
}

// suspect raises and floods a suspicion of st.Seg.
func (a *agent) suspect(st *segState, round int, kind detector.Kind, conf float64, detail string) {
	a.keyBuf = topology.AppendKey(a.keyBuf[:0], st.Seg)
	if a.suspected[topology.SegmentKey(a.keyBuf)] {
		return
	}
	a.suspected[topology.SegmentKey(a.keyBuf)] = true
	s := detector.Suspicion{
		By: a.id, Segment: st.Seg, Round: round,
		At: a.p.env.Now(), Kind: kind, Confidence: conf, Detail: detail,
	}
	a.p.tel.Deliver(s, a.p.opts.Sink, a.p.opts.Round)
	// Reliable broadcast of [π]r (Fig 5.3): strong completeness.
	a.p.flood.Flood(a.id, TopicAlert, strconv.Itoa(round), slices.Clone(a.keyBuf))
}

// onAlert accepts another router's flooded suspicion: verify the flood
// signature (done by the consensus layer), require a whole segment key with
// the announcer as a member, and adopt the suspicion. The round travels in
// the instance. Admission reads the payload in place — a non-member or
// already-suspected announcement costs no allocation — and only an adopted
// one is decoded.
func (a *agent) onAlert(m consensus.Msg) {
	round, err := strconv.Atoi(m.Instance)
	if err != nil || m.Origin == a.id {
		return
	}
	if !topology.MemberKey(m.Payload, m.Origin) {
		return // a non-member announcement could frame correct routers
	}
	if a.suspected[topology.SegmentKey(m.Payload)] {
		return
	}
	ad := a.p.adopt(m.Payload)
	a.suspected[ad.key] = true
	s := detector.Suspicion{
		By: a.id, Segment: ad.seg, Round: round, At: a.p.env.Now(),
		Kind: detector.KindTrafficValidation, Confidence: 1,
		Detail: a.p.announcedBy(m.Origin),
	}
	a.p.tel.Deliver(s, a.p.opts.Sink, a.p.opts.Round)
}

// adopt returns the shared key and segment of the announced segment key,
// converting and decoding it once per segment rather than once per
// adopting router. The segment is read-only: every adopter's suspicion
// carries it.
func (p *Protocol) adopt(key []byte) adoption {
	if ad, ok := p.adopted[topology.SegmentKey(key)]; ok {
		return ad
	}
	ad := adoption{key: topology.SegmentKey(key)}
	ad.seg = topology.DecodeKey(ad.key)
	p.adopted[ad.key] = ad
	return ad
}

// announcedBy returns the Detail of a suspicion adopted from origin's
// announcement, formatting it once per origin rather than once per
// adopting router.
func (p *Protocol) announcedBy(origin packet.NodeID) string {
	if uint(origin) >= uint(len(p.agents)) {
		return fmt.Sprintf("announced by %v", origin)
	}
	if p.announced == nil {
		p.announced = make([]string, len(p.agents))
	}
	if p.announced[origin] == "" {
		p.announced[origin] = fmt.Sprintf("announced by %v", origin)
	}
	return p.announced[origin]
}
