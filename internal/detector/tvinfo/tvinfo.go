// Package tvinfo holds the traffic-information machinery shared by the
// path-segment detection protocols (Π2 and Πk+2): conservation policies,
// per-round traffic summaries info(r, π, τ), and the segment monitor that
// records them along the paths topology.PathTable predicts (§4.1, §4.2.1).
package tvinfo

import (
	"encoding/binary"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/summary"
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

// NewSummary allocates the structures the policy needs — the counter, and
// the set and sequence if the policy reads them, in one allocation beside
// the Summary that points at them, since most segment-rounds of a large
// deployment see no traffic and are only this. The timed lanes are a
// second allocation that only PolicyTimeliness pays for.
func NewSummary(policy Policy) *Summary {
	switch {
	case policy >= PolicyOrder:
		b := &struct {
			Summary
			fps     summary.FPSet
			ordered summary.OrderedFP
		}{}
		b.FPs, b.Ordered = &b.fps, &b.ordered
		if policy >= PolicyTimeliness {
			b.Timed = &summary.TimedFP{}
		}
		return &b.Summary
	case policy == PolicyContent:
		b := &struct {
			Summary
			fps summary.FPSet
		}{}
		b.FPs = &b.fps
		return &b.Summary
	}
	return &Summary{}
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
		s.Timed.Append(fp, int32(size), ts, 0)
	}
}

// absent is the section length that marks a section not collected, so
// decoding can distinguish "empty" from "not collected".
const absent = ^uint32(0)

// AppendEncode appends the summary encoding to b and returns the extended
// slice. Layout: counter (16 B) · FP section · order section · timed
// section, each a uint32 length followed by that many bytes, or the absent
// length alone.
func (s *Summary) AppendEncode(b []byte) []byte {
	b = s.Counter.AppendEncode(b)
	b = appendSection(b, s.FPs)
	b = appendSection(b, s.Ordered)
	return appendSection(b, s.Timed)
}

// appendSection appends one section, or the absent length for a nil one.
// The section is appended in place and its length backfilled, so one buffer
// serves the whole encoding.
func appendSection[P interface {
	*T
	AppendEncode([]byte) []byte
}, T any](b []byte, sec P) []byte {
	if sec == nil {
		return binary.BigEndian.AppendUint32(b, absent)
	}
	at := len(b)
	b = sec.AppendEncode(append(b, 0, 0, 0, 0))
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
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

// DecodeSummary parses an encoded summary: the section framing around the
// four summary decoders. It returns false on malformed input (which
// protocols treat as a missing report).
func DecodeSummary(b []byte) (*Summary, bool) {
	c, err := summary.DecodeCounter(b[:min(len(b), 16)])
	if err != nil {
		return nil, false
	}
	s := &Summary{Counter: c}
	rest := b[16:]
	if !decodeSection(&rest, &s.FPs, summary.DecodeFPSet) ||
		!decodeSection(&rest, &s.Ordered, summary.DecodeOrderedFP) ||
		!decodeSection(&rest, &s.Timed, summary.DecodeTimedFP) || len(rest) != 0 {
		return nil, false
	}
	return s, true
}

// decodeSection consumes the next section of *rest and, unless it is
// absent, decodes it into *dst. It reports whether the section was well
// formed.
func decodeSection[T any](rest *[]byte, dst **T, decode func([]byte) (*T, error)) bool {
	if len(*rest) < 4 {
		return false
	}
	n := binary.BigEndian.Uint32(*rest)
	*rest = (*rest)[4:]
	if n == absent {
		return true
	}
	if uint32(len(*rest)) < n {
		return false
	}
	sec, err := decode((*rest)[:n])
	if err != nil {
		return false
	}
	*dst, *rest = sec, (*rest)[n:]
	return true
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
