// Package detector defines the failure-detector specification of §4.2.2 —
// suspicions as (path-segment, interval) pairs, a-Accuracy, a-FI/FC-
// Completeness, and precision — plus the suspicion log with its canonical
// transcript and the property checkers the protocol test suites use to
// verify that Π2, Πk+2 and χ meet their specifications against ground
// truth.
package detector

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

// Kind classifies what evidence produced a suspicion.
type Kind int

// Suspicion kinds.
const (
	// KindTrafficValidation: the TV predicate over exchanged summaries
	// failed (lost / modified / reordered traffic).
	KindTrafficValidation Kind = iota + 1
	// KindExchangeTimeout: a summary exchange did not complete within µ
	// (protocol-faulty behaviour on the segment).
	KindExchangeTimeout
	// KindEquivocation: a router distributed conflicting signed summaries
	// during consensus.
	KindEquivocation
	// KindSingleLoss: Protocol χ's single-packet confidence test fired.
	KindSingleLoss
	// KindCombinedLoss: Protocol χ's combined Z-test fired.
	KindCombinedLoss
	// KindREDZeroProb: a packet was dropped when its replayed RED drop
	// probability was zero.
	KindREDZeroProb
	// KindREDExcess: the observed RED drop count is inconsistent with the
	// replayed drop probabilities.
	KindREDExcess
	// KindREDShare: drops concentrate on specific flows far beyond their
	// share of the replayed drop probability — flow-selective dropping.
	KindREDShare
	// KindFabrication: traffic left a router that no neighbor reports
	// having sent to it.
	KindFabrication
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindTrafficValidation:
		return "traffic-validation"
	case KindExchangeTimeout:
		return "exchange-timeout"
	case KindEquivocation:
		return "equivocation"
	case KindSingleLoss:
		return "single-loss"
	case KindCombinedLoss:
		return "combined-loss"
	case KindREDZeroProb:
		return "red-zero-prob"
	case KindREDExcess:
		return "red-excess"
	case KindREDShare:
		return "red-share"
	case KindFabrication:
		return "fabrication"
	default:
		return "unknown"
	}
}

// Suspicion is the failure detector's output: router By suspects that some
// router in Segment behaved in a faulty manner during the round ending at
// At (§4.2.2: the detector reports (π, τ) pairs).
type Suspicion struct {
	By      packet.NodeID
	Segment topology.Segment
	Round   int
	At      time.Duration
	Kind    Kind
	// Confidence is the statistical confidence for χ's tests (1 for the
	// deterministic TV detections).
	Confidence float64
	// Detail is a human-readable explanation.
	Detail string
}

// String renders the suspicion.
func (s Suspicion) String() string {
	return fmt.Sprintf("t=%v %v suspects %v round=%d kind=%v conf=%.4f %s",
		s.At, s.By, s.Segment, s.Round, s.Kind, s.Confidence, s.Detail)
}

// Log collects suspicions from all routers in a run. Protocols append to a
// shared Log; experiments and property checkers read it. (Simulations are
// single-threaded; no locking needed.)
type Log struct {
	suspicions []Suspicion
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Add records a suspicion.
func (l *Log) Add(s Suspicion) { l.suspicions = append(l.suspicions, s) }

// All returns every recorded suspicion.
func (l *Log) All() []Suspicion { return append([]Suspicion(nil), l.suspicions...) }

// Len returns the number of suspicions.
func (l *Log) Len() int { return len(l.suspicions) }

// String renders the log as the verdict transcript: one Suspicion.String()
// per line, in recording order. It is the byte-comparable form of a run's
// outcome — what the CLIs' -verdicts flag writes, what the differential
// harness and the record/replay goldens compare, and the format the rwbench
// verdict digest hashes.
func (l *Log) String() string {
	var b strings.Builder
	for _, s := range l.suspicions {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteReport prints the CLIs' human-readable report of the log to w: the
// suspicion count, then the first 12 suspicions.
func (l *Log) WriteReport(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%d suspicions:\n", l.Len())
	for i, s := range l.suspicions {
		if i >= 12 {
			fmt.Fprintf(&b, "  ... and %d more\n", l.Len()-i)
			break
		}
		fmt.Fprintf(&b, "  %v\n", s)
	}
	if l.Len() == 0 {
		b.WriteString("  (none)\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// FirstAt returns the time of the earliest suspicion, or 0 if none.
func (l *Log) FirstAt() time.Duration {
	if len(l.suspicions) == 0 {
		return 0
	}
	min := l.suspicions[0].At
	for _, s := range l.suspicions[1:] {
		if s.At < min {
			min = s.At
		}
	}
	return min
}

// Segments returns the distinct suspected segments.
func (l *Log) Segments() []topology.Segment {
	ss := make(topology.SegmentSet)
	for _, s := range l.suspicions {
		ss.Add(s.Segment)
	}
	return ss.Slice()
}

// GroundTruth is the oracle the property checkers compare against: which
// routers were traffic faulty and which were (only) protocol faulty
// (§2.2.1).
type GroundTruth struct {
	TrafficFaulty  map[packet.NodeID]bool
	ProtocolFaulty map[packet.NodeID]bool
}

// NewGroundTruth builds an oracle.
func NewGroundTruth(traffic, protocol []packet.NodeID) GroundTruth {
	gt := GroundTruth{
		TrafficFaulty:  make(map[packet.NodeID]bool),
		ProtocolFaulty: make(map[packet.NodeID]bool),
	}
	for _, r := range traffic {
		gt.TrafficFaulty[r] = true
	}
	for _, r := range protocol {
		gt.ProtocolFaulty[r] = true
	}
	return gt
}

// Faulty reports whether r is faulty in any way.
func (gt GroundTruth) Faulty(r packet.NodeID) bool {
	return gt.TrafficFaulty[r] || gt.ProtocolFaulty[r]
}

// CheckAccuracy verifies a-Accuracy (§4.2.2): every suspicion announced by
// a *correct* router names a segment of length ≤ a containing at least one
// faulty router. It returns the violating suspicions.
func CheckAccuracy(log *Log, gt GroundTruth, a int) []Suspicion {
	var violations []Suspicion
	for _, s := range log.suspicions {
		if gt.Faulty(s.By) {
			continue // faulty routers may suspect anything
		}
		if len(s.Segment) > a {
			violations = append(violations, s)
			continue
		}
		ok := false
		for _, r := range s.Segment {
			if gt.Faulty(r) {
				ok = true
				break
			}
		}
		if !ok {
			violations = append(violations, s)
		}
	}
	return violations
}

// CheckCompleteness verifies (strong, FC) completeness for a single known
// traffic-faulty router: every correct router in `routers` must have
// recorded a suspicion whose segment contains a router fault-connected to
// the faulty one. With a single faulty router, fault-connected degenerates
// to "contains the faulty router" (§4.2.2). It returns the correct routers
// that failed to suspect.
func CheckCompleteness(log *Log, gt GroundTruth, faulty packet.NodeID, routers []packet.NodeID) []packet.NodeID {
	suspectedBy := make(map[packet.NodeID]bool)
	for _, s := range log.suspicions {
		if s.Segment.Contains(faulty) {
			suspectedBy[s.By] = true
		}
	}
	var missing []packet.NodeID
	for _, r := range routers {
		if gt.Faulty(r) {
			continue
		}
		if !suspectedBy[r] {
			missing = append(missing, r)
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	return missing
}

// Precision returns the maximum suspected segment length (§4.2.2), or 0 if
// the log is empty.
func Precision(log *Log) int {
	max := 0
	for _, s := range log.suspicions {
		if len(s.Segment) > max {
			max = len(s.Segment)
		}
	}
	return max
}

// Sink receives suspicions as they are raised. Protocols accept a Sink so
// experiments can both log and wire detections into the routing response.
type Sink func(Suspicion)

// Tee fans a suspicion out to several sinks.
func Tee(sinks ...Sink) Sink {
	return func(s Suspicion) {
		for _, sink := range sinks {
			sink(s)
		}
	}
}

// LogSink appends to a Log.
func LogSink(l *Log) Sink { return l.Add }
