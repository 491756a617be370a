package pi2

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"routerwatch/internal/consensus"
	"routerwatch/internal/detector"
	"routerwatch/internal/detector/tvinfo"
	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

// segState is per-(router, monitored segment) state: the shared recording
// half plus what Π2's consensus and judging add.
type segState struct {
	tvinfo.Watch

	// collected maps round → origin → received signed summaries (more
	// than one distinct payload per origin = equivocation). It is made at
	// the first summary received.
	collected map[int]map[packet.NodeID][]consensus.Msg
}

// agent is the per-router Π2 engine.
type agent struct {
	p   *Protocol
	id  packet.NodeID
	mon tvinfo.Monitor

	// segs is indexed by watch order: mon.Find's answer.
	segs []segState

	corrupt    Corruptor
	equivocate bool

	suspected map[topology.SegmentKey]bool
}

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
		if a.mon.Watch(&a.segs[n].Watch, sid) {
			n++
		}
	}
	a.segs = a.segs[:n]

	p.flood.Subscribe(a.id, TopicInfo, a.onInfo)
	p.flood.Subscribe(a.id, TopicAlert, a.onAlert)
	return a
}

// publishRound floods this router's signed summaries for round n.
func (a *agent) publishRound(n int) {
	for i := range a.segs {
		st := &a.segs[i]
		s := st.Summary(n)
		if a.corrupt != nil {
			s = a.corrupt(st.Seg, n, s)
			if s == nil {
				continue
			}
		}
		inst := infoInstance(st.Seg, n)
		payload := infoPayload(st.Pos, s)
		a.p.flood.Flood(a.id, TopicInfo, inst, payload)
		a.p.tel.Summaries.Inc()
		a.p.tel.SummaryBytes.Add(int64(len(payload)))
		if a.equivocate {
			forged := tvinfo.NewSummary(a.p.opts.Policy)
			forged.Record(packet.Fingerprint(n)+0xE0E0, 1)
			a.p.flood.Flood(a.id, TopicInfo, inst, infoPayload(st.Pos, forged))
		}
	}
}

// onInfo collects a flooded summary (already signature-verified by the
// consensus layer). The instance is parsed into the Protocol's scratch and
// probed against this router's watches first: an info for a segment the
// router does not watch costs no allocation.
func (a *agent) onInfo(m consensus.Msg) {
	seg, n, ok := parseInstance(m.Instance, a.p.instBuf)
	if !ok {
		return
	}
	a.p.instBuf = seg
	if !a.p.rec.Admits(n) {
		return
	}
	i, ok := a.mon.Find(seg)
	if !ok {
		return
	}
	st := &a.segs[i]
	if len(m.Payload) < 4 {
		return
	}
	pos := int(binary.BigEndian.Uint32(m.Payload))
	if pos < 0 || pos >= len(st.Seg) || st.Seg[pos] != m.Origin {
		return // a router may only report for its own position
	}
	if st.collected == nil {
		st.collected = make(map[int]map[packet.NodeID][]consensus.Msg)
	}
	byOrigin := st.collected[n]
	if byOrigin == nil {
		byOrigin = make(map[packet.NodeID][]consensus.Msg)
		st.collected[n] = byOrigin
	}
	// Keep distinct payloads only (duplicates collapse, conflicts stay).
	for _, prev := range byOrigin[m.Origin] {
		if string(prev.Payload) == string(m.Payload) {
			return
		}
	}
	byOrigin[m.Origin] = append(byOrigin[m.Origin], m)
}

// judgeRound evaluates all adjacent pairs of each monitored segment for
// round n (Fig 5.1's post-consensus loop).
func (a *agent) judgeRound(n int) {
	for i := range a.segs {
		st := &a.segs[i]
		a.p.tel.Rounds.Inc()
		byOrigin := st.collected[n]
		delete(st.collected, n)
		st.Close(n)

		// Decode each participant's summary; classify missing and
		// equivocating participants.
		type report struct {
			sum *tvinfo.Summary
			msg consensus.Msg
		}
		reports := make([]*report, len(st.Seg))
		for i, router := range st.Seg {
			msgs := byOrigin[router]
			switch len(msgs) {
			case 0:
				// missing — handled below
			case 1:
				if sum, ok := tvinfo.DecodeSummary(msgs[0].Payload[4:]); ok {
					reports[i] = &report{sum: sum, msg: msgs[0]}
				}
			default:
				a.suspectPair(st, n, i, detector.KindEquivocation,
					fmt.Sprintf("%v equivocated during consensus", router), nil, nil)
			}
		}
		for i, router := range st.Seg {
			if reports[i] == nil && len(byOrigin[router]) <= 1 {
				a.suspectPair(st, n, i, detector.KindExchangeTimeout,
					fmt.Sprintf("no signed summary from %v", router), nil, nil)
			}
		}
		for i := 0; i+1 < len(st.Seg); i++ {
			up, dn := reports[i], reports[i+1]
			if up == nil || dn == nil {
				continue
			}
			res := tvinfo.Validate(a.p.opts.Policy, a.p.opts.Thresholds, up.sum, dn.sum)
			if !res.OK {
				pair := topology.Segment{st.Seg[i], st.Seg[i+1]}
				a.suspect(st, pair, n, detector.KindTrafficValidation, res.String(),
					&up.msg, &dn.msg)
			}
		}
	}
	if len(a.segs) > 0 {
		a.p.tel.RoundSpan("pi2 round", n, a.p.opts.Round, a.p.env.Now(), int32(a.id))
	}
}

// suspectPair suspects the 2-segment(s) of seg containing position i.
func (a *agent) suspectPair(st *segState, n, i int, kind detector.Kind, detail string, up, dn *consensus.Msg) {
	if i+1 < len(st.Seg) {
		a.suspect(st, topology.Segment{st.Seg[i], st.Seg[i+1]}, n, kind, detail, up, dn)
	} else if i > 0 {
		a.suspect(st, topology.Segment{st.Seg[i-1], st.Seg[i]}, n, kind, detail, up, dn)
	}
}

// suspect raises a suspicion of the pair and floods evidence when present.
func (a *agent) suspect(st *segState, pair topology.Segment, n int, kind detector.Kind, detail string, up, dn *consensus.Msg) {
	key := topology.Key(pair)
	if a.suspected[key] {
		return
	}
	a.suspected[key] = true
	s := detector.Suspicion{
		By: a.id, Segment: pair, Round: n, At: a.p.env.Now(),
		Kind: kind, Confidence: 1, Detail: detail,
	}
	a.p.tel.Deliver(s, a.p.opts.Sink, a.p.opts.Round)
	ev := &AlertEvidence{
		Seg: st.Seg, Pair: pair, Round: n, Detail: detail, Announce: a.id, Kind: kind,
	}
	if up != nil && dn != nil {
		ev.Up, ev.Dn = *up, *dn
		ev.HasEvidence = true
	}
	a.p.floodAlert(a.id, ev)
}

// onAlert adopts another router's suspicion. TV alerts carry the two signed
// summaries; the receiver re-verifies the signatures and re-evaluates the
// predicate before adopting, so faulty announcers cannot frame correct
// pairs. Evidence-free alerts (timeouts, equivocation) are adopted only if
// the announcer is a member of the monitored segment.
func (a *agent) onAlert(m consensus.Msg) {
	ev, ok := decodeAlert(m.Payload)
	if !ok || ev.Announce != m.Origin || ev.Announce == a.id {
		return
	}
	key := topology.Key(ev.Pair)
	if a.suspected[key] {
		return
	}
	if ev.HasEvidence {
		if !a.verifyEvidence(ev) {
			return
		}
	} else if !ev.Seg.Contains(ev.Announce) {
		return
	}
	a.suspected[key] = true
	s := detector.Suspicion{
		By: a.id, Segment: ev.Pair, Round: ev.Round, At: a.p.env.Now(),
		Kind: ev.Kind, Confidence: 1,
		Detail: fmt.Sprintf("announced by %v: %s", ev.Announce, ev.Detail),
	}
	a.p.tel.Deliver(s, a.p.opts.Sink, a.p.opts.Round)
}

// verifyEvidence checks the two signed summaries and re-runs TV.
func (a *agent) verifyEvidence(ev *AlertEvidence) bool {
	au := a.p.env.Auth()
	inst := infoInstance(ev.Seg, ev.Round)
	for _, m := range []consensus.Msg{ev.Up, ev.Dn} {
		if m.Topic != TopicInfo || m.Instance != inst {
			return false
		}
		if !au.Verify(consensus.SignedBody(m.Origin, m.Topic, m.Instance, m.Payload), m.Sig) ||
			m.Sig.Signer != m.Origin {
			return false
		}
	}
	// Origins must be the adjacent pair, in order, at their positions.
	if len(ev.Up.Payload) < 4 || len(ev.Dn.Payload) < 4 {
		return false
	}
	upPos := int(binary.BigEndian.Uint32(ev.Up.Payload))
	dnPos := int(binary.BigEndian.Uint32(ev.Dn.Payload))
	if dnPos != upPos+1 || upPos < 0 || dnPos >= len(ev.Seg) {
		return false
	}
	if ev.Seg[upPos] != ev.Up.Origin || ev.Seg[dnPos] != ev.Dn.Origin {
		return false
	}
	if len(ev.Pair) != 2 || ev.Pair[0] != ev.Up.Origin || ev.Pair[1] != ev.Dn.Origin {
		return false
	}
	upSum, ok1 := tvinfo.DecodeSummary(ev.Up.Payload[4:])
	dnSum, ok2 := tvinfo.DecodeSummary(ev.Dn.Payload[4:])
	if !ok1 || !ok2 {
		return false
	}
	res := tvinfo.Validate(a.p.opts.Policy, a.p.opts.Thresholds, upSum, dnSum)
	return !res.OK
}

// parseInstance reads the segment and round an info instance names: the
// inverse of infoInstance, for a whole segment key only (hex of 4-byte
// router IDs, either case, as hex.DecodeString reads it). The segment is
// decoded into buf's storage, so an info is probed against the router's
// watches before anything is allocated for it.
func parseInstance(inst string, buf topology.Segment) (topology.Segment, int, bool) {
	i := strings.LastIndexByte(inst, '/')
	if i < 0 {
		return nil, 0, false
	}
	n, err := strconv.Atoi(inst[i+1:])
	if err != nil {
		return nil, 0, false
	}
	hx := inst[:i]
	if len(hx)%8 != 0 {
		return nil, 0, false
	}
	seg := buf[:0]
	for j := 0; j < len(hx); j += 8 {
		var id uint32
		for k := j; k < j+8; k++ {
			d, ok := unhex(hx[k])
			if !ok {
				return nil, 0, false
			}
			id = id<<4 | uint32(d)
		}
		seg = append(seg, packet.NodeID(id))
	}
	return seg, n, true
}

// unhex is the value of the hex digit c.
func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
