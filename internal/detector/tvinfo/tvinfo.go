// Package tvinfo holds the traffic-information machinery shared by the
// path-segment detection protocols (Π2 and Πk+2): conservation policies,
// per-round traffic summaries info(r, π, τ), and the path oracle that
// predicts which segments a packet traverses (§4.1, §4.2.1).
package tvinfo

import (
	"encoding/binary"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/summary"
	"routerwatch/internal/topology"
)

// Policy selects the conservation-of-traffic property to validate (§2.4.1).
type Policy int

// Validation policies.
const (
	// PolicyFlow validates packet counts only (cheapest; WATCHERS-class
	// threat model).
	PolicyFlow Policy = iota + 1
	// PolicyContent validates fingerprint multisets (loss, modification,
	// fabrication, misrouting).
	PolicyContent
	// PolicyOrder additionally validates packet order.
	PolicyOrder
	// PolicyTimeliness additionally validates per-packet transit delay
	// (conservation of timeliness, §2.4.1: "maintaining ordered list of
	// packet fingerprints associated with timestamps").
	PolicyTimeliness
)

// Thresholds are the benign-anomaly allowances of a TV predicate.
type Thresholds struct {
	Loss        int
	Fabrication int
	Reorder     int
	// MaxDelay bounds acceptable transit delay beyond the predicted
	// arrival (PolicyTimeliness).
	MaxDelay time.Duration
	// Late tolerates this many over-delayed packets per round.
	Late int
}

// Summary is one router's traffic information for a segment-round
// (info(r, π, τ) of §4.2.1).
type Summary struct {
	Counter summary.Counter
	FPs     *summary.FPSet
	Ordered *summary.OrderedFP
	Timed   *summary.TimedFP
}

// NewSummary allocates the structures the policy needs — all of them in one
// allocation beside the Summary that points at them, since most
// segment-rounds of a large deployment see no traffic and are only this.
func NewSummary(policy Policy) *Summary {
	b := &struct {
		Summary
		fps     summary.FPSet
		ordered summary.OrderedFP
		timed   summary.TimedFP
	}{}
	s := &b.Summary
	if policy >= PolicyContent {
		s.FPs = &b.fps
	}
	if policy >= PolicyOrder {
		s.Ordered = &b.ordered
	}
	if policy >= PolicyTimeliness {
		s.Timed = &b.timed
	}
	return s
}

// Record adds one observed packet.
func (s *Summary) Record(fp packet.Fingerprint, size int) {
	s.RecordTimed(fp, size, 0)
}

// RecordTimed adds one observed packet with its (predicted or actual)
// sink-side timestamp, for PolicyTimeliness.
func (s *Summary) RecordTimed(fp packet.Fingerprint, size int, ts time.Duration) {
	s.Counter.Add(size)
	if s.FPs != nil {
		s.FPs.Add(fp)
	}
	if s.Ordered != nil {
		s.Ordered.Add(fp)
	}
	if s.Timed != nil {
		s.Timed.Add(fp, size, ts)
	}
}

// AppendEncode appends the summary encoding to b and returns the extended
// slice. Layout: counter (16 B) · uint32 FP-section length · FP bytes ·
// uint32 order-section length · order bytes · uint32 timed-section length ·
// timed bytes. Absent sections encode length 0xFFFFFFFF so decoding can
// distinguish "empty" from "not collected". Each present section is
// appended in place and its length backfilled, so one buffer serves the
// whole encoding.
func (s *Summary) AppendEncode(b []byte) []byte {
	const absent = ^uint32(0)
	b = s.Counter.AppendEncode(b)
	if s.FPs != nil {
		at := len(b)
		b = append(b, 0, 0, 0, 0)
		b = s.FPs.AppendEncode(b)
		binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	} else {
		b = binary.BigEndian.AppendUint32(b, absent)
	}
	if s.Ordered != nil {
		at := len(b)
		b = append(b, 0, 0, 0, 0)
		b = s.Ordered.AppendEncode(b)
		binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	} else {
		b = binary.BigEndian.AppendUint32(b, absent)
	}
	if s.Timed != nil {
		at := len(b)
		b = append(b, 0, 0, 0, 0)
		b = s.Timed.AppendEncode(b)
		binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	} else {
		b = binary.BigEndian.AppendUint32(b, absent)
	}
	return b
}

// Encode serializes the summary for signing and for evidence transfer.
func (s *Summary) Encode() []byte { return s.AppendEncode(make([]byte, 0, s.EncodedLen())) }

// EncodedLen returns len(Encode()) without materializing the encoding, so
// wire-size accounting never allocates.
func (s *Summary) EncodedLen() int {
	n := s.Counter.EncodedLen() + 12
	if s.FPs != nil {
		n += s.FPs.EncodedLen()
	}
	if s.Ordered != nil {
		n += s.Ordered.EncodedLen()
	}
	if s.Timed != nil {
		n += s.Timed.EncodedLen()
	}
	return n
}

// DecodeSummary parses an encoded summary. It returns false on malformed
// input (which protocols treat as a missing report).
func DecodeSummary(b []byte) (*Summary, bool) {
	const absent = ^uint32(0)
	if len(b) < 24 {
		return nil, false
	}
	s := &Summary{}
	s.Counter, _ = summary.DecodeCounter(b[:16]) // length checked above
	rest := b[16:]

	readSection := func() ([]byte, bool, bool) { // data, present, ok
		if len(rest) < 4 {
			return nil, false, false
		}
		n := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		if n == absent {
			return nil, false, true
		}
		if uint32(len(rest)) < n {
			return nil, false, false
		}
		data := rest[:n]
		rest = rest[n:]
		return data, true, true
	}

	fpSec, fpPresent, ok := readSection()
	if !ok {
		return nil, false
	}
	if fpPresent {
		fps, err := summary.DecodeFPSet(fpSec)
		if err != nil {
			return nil, false
		}
		s.FPs = fps
	}
	ordSec, ordPresent, ok := readSection()
	if !ok {
		return nil, false
	}
	if ordPresent {
		if len(ordSec)%8 != 0 {
			return nil, false
		}
		s.Ordered = summary.NewOrderedFP()
		for i := 0; i+8 <= len(ordSec); i += 8 {
			s.Ordered.Add(packet.Fingerprint(binary.BigEndian.Uint64(ordSec[i:])))
		}
	}
	timedSec, timedPresent, ok := readSection()
	if !ok || len(rest) != 0 {
		return nil, false
	}
	if timedPresent {
		if len(timedSec)%28 != 0 {
			return nil, false
		}
		s.Timed = summary.NewTimedFP()
		for i := 0; i+28 <= len(timedSec); i += 28 {
			s.Timed.AddFlow(
				packet.Fingerprint(binary.BigEndian.Uint64(timedSec[i:])),
				int(binary.BigEndian.Uint32(timedSec[i+8:])),
				time.Duration(binary.BigEndian.Uint64(timedSec[i+12:])),
				packet.FlowID(binary.BigEndian.Uint64(timedSec[i+20:])),
			)
		}
	}
	return s, true
}

// Empty reports whether the summary holds no packet in any section: the
// summary a round without traffic produces, which Πk+2 does not send.
func (s *Summary) Empty() bool {
	return s.Counter.Packets == 0 &&
		(s.FPs == nil || s.FPs.Len() == 0) &&
		(s.Ordered == nil || s.Ordered.Len() == 0) &&
		(s.Timed == nil || s.Timed.Len() == 0)
}

// Validate applies the policy's TV predicate between an upstream and a
// downstream summary. Either may have been signed by a protocol-faulty
// router or decoded from the wire with the section the policy reads left
// out: that is a failed validation, not a nil dereference — the segment a
// caller then suspects contains the summary's signer, so it is accurate.
func Validate(policy Policy, th Thresholds, up, down *Summary) Result {
	switch policy {
	case PolicyFlow:
		return flowTV(th, up.Counter, down.Counter)
	case PolicyTimeliness:
		if up.Timed == nil || down.Timed == nil {
			return missingSection("timed")
		}
		return timelinessTV(th, up.Timed, down.Timed)
	case PolicyOrder:
		if up.Ordered == nil || down.Ordered == nil {
			return missingSection("ordered")
		}
		return orderTV(th, up.Ordered, down.Ordered)
	default:
		if up.FPs == nil || down.FPs == nil {
			return missingSection("fingerprint")
		}
		return contentTV(th, up.FPs, down.FPs)
	}
}

func missingSection(name string) Result {
	return Result{Detail: "a summary lacks the " + name + " section the policy validates"}
}

// PathOracle predicts the routing path of any (src, dst) pair in the stable
// state (§4.1: deterministic forwarding lets a router predict packet
// paths). Built from explicit paths, it is a dense table of them indexed
// src·n+dst, so a lookup is a bounds check and a load; over an ECMP fabric
// it resolves the flow-hash next-hop choices instead (§7.4.1).
type PathOracle struct {
	paths []topology.Path // src·n+dst → path; nil where none was given
	n     int
	ecmp  *topology.ECMP
}

// NewECMPPathOracle predicts per-flow paths over an equal-cost multipath
// forwarding fabric.
func NewECMPPathOracle(e *topology.ECMP) *PathOracle {
	return &PathOracle{ecmp: e}
}

// NewPathOracleFromPaths builds an oracle from explicit per-pair paths
// (e.g. traced from live forwarding tables after a routing change, or the
// Graph.AllPairsPaths a detector already holds). The table spans n = one
// more than the largest end ID; a path with a negative end or fewer than two
// routers is left out, and of two paths with the same ends the later wins.
// It keeps the paths, which callers must not mutate afterwards.
func NewPathOracleFromPaths(paths []topology.Path) *PathOracle {
	o := &PathOracle{}
	usable := func(p topology.Path) bool { return len(p) >= 2 && p[0] >= 0 && p[len(p)-1] >= 0 }
	for _, p := range paths {
		if usable(p) {
			o.n = max(o.n, int(p[0])+1, int(p[len(p)-1])+1)
		}
	}
	o.paths = make([]topology.Path, o.n*o.n)
	for _, p := range paths {
		if usable(p) {
			o.paths[int(p[0])*o.n+int(p[len(p)-1])] = p
		}
	}
	return o
}

// NewPathOracle precomputes all-pairs deterministic paths.
func NewPathOracle(g *topology.Graph) *PathOracle {
	return NewPathOracleFromPaths(g.AllPairsPaths())
}

// Path returns the predicted path src→dst for a flow (nil if unknown). The
// addresses are the sender's to write, so either may lie outside the table.
func (o *PathOracle) Path(src, dst packet.NodeID, flow packet.FlowID) topology.Path {
	if o.ecmp != nil {
		return o.ecmp.FlowPath(src, dst, flow)
	}
	if src < 0 || dst < 0 || int(src) >= o.n || int(dst) >= o.n {
		return nil
	}
	return o.paths[int(src)*o.n+int(dst)]
}
