package detector

import (
	"time"

	"routerwatch/internal/telemetry"
)

// suspicionLatencyBucketsMs bins detection latency — the delay from the end
// of the validated round to the suspicion instant — in milliseconds. The
// bounds cover the τ = 1 s (χ) through τ = 5 s (Π) regimes plus flood
// propagation tails.
var suspicionLatencyBucketsMs = []int64{100, 250, 500, 1_000, 2_000, 5_000, 10_000, 30_000, 60_000}

// batchEntriesBuckets bins per-round batch sizes (records per signed batch)
// — the amortization factor of the batched hot path.
var batchEntriesBuckets = []int64{1, 4, 16, 64, 256, 1_024, 4_096}

// Instruments bundles a detection protocol's telemetry handles, resolved
// once at Attach time and labeled protocol=<name>. The zero value (all nil
// fields) is fully usable and free: every call degrades to a nil-check per
// internal/telemetry's disabled-path contract, so protocol code calls these
// unconditionally.
type Instruments struct {
	// Fingerprints counts traffic records folded into summaries — the
	// per-packet work of the protocol's data-plane taps.
	Fingerprints *telemetry.Counter
	// RouteFills counts the route-memo misses a Π2 or Πk+2 monitor filled
	// from the path table, and RouteResets the memos it dropped — full,
	// filled against a replaced table, or filled before a watch was added —
	// so fills per packet says how often dispatch missed.
	RouteFills  *telemetry.Counter
	RouteResets *telemetry.Counter
	// Summaries counts summary messages sent (Πk+2 exchanges, Π2 floods,
	// χ reporter batches); SummaryBytes accumulates their payload bytes —
	// the §5.2.1/§7 control-plane overhead.
	Summaries    *telemetry.Counter
	SummaryBytes *telemetry.Counter
	// SilentRounds counts the segment-rounds an end had nothing to report
	// and sent nothing (Πk+2: silence is the empty summary), so Summaries +
	// SilentRounds is every segment-round an end came to exchange.
	SilentRounds *telemetry.Counter
	// Rounds counts validation rounds judged, per segment or queue, whether
	// or not a summary was exchanged for them.
	Rounds *telemetry.Counter
	// Suspicions counts suspicions raised or adopted; Latency bins the
	// delay from the validated round's end to the suspicion (ms).
	Suspicions *telemetry.Counter
	Latency    *telemetry.Histogram
	// BatchEntries bins the record count of each signed batch a χ reporter
	// flushes — the denominator of the aggregate-MAC amortization — and
	// the number of summaries a Πk+2 router sends at one round boundary.
	BatchEntries *telemetry.Histogram

	// Trace, when non-nil, receives suspicion instants and round spans on
	// the suspecting router's timeline.
	Trace *telemetry.Tracer
}

// NewInstruments resolves a protocol's instruments against set's registry
// and tracer. A nil or disabled set yields the zero Instruments.
func NewInstruments(set *telemetry.Set, protocol string) Instruments {
	reg := set.Registry()
	return Instruments{
		Fingerprints: reg.Counter("rw_detector_fingerprints_total", "protocol", protocol),
		RouteFills:   reg.Counter("rw_detector_route_fills_total", "protocol", protocol),
		RouteResets:  reg.Counter("rw_detector_route_resets_total", "protocol", protocol),
		Summaries:    reg.Counter("rw_detector_summaries_total", "protocol", protocol),
		SummaryBytes: reg.Counter("rw_detector_summary_bytes_total", "protocol", protocol),
		SilentRounds: reg.Counter("rw_detector_silent_rounds_total", "protocol", protocol),
		Rounds:       reg.Counter("rw_detector_rounds_total", "protocol", protocol),
		Suspicions:   reg.Counter("rw_detector_suspicions_total", "protocol", protocol),
		Latency:      reg.Histogram("rw_detector_suspicion_latency_ms", suspicionLatencyBucketsMs, "protocol", protocol),
		BatchEntries: reg.Histogram("rw_detector_batch_entries", batchEntriesBuckets, "protocol", protocol),
		Trace:        set.Tracer(),
	}
}

// ObserveSuspicion records a raised or adopted suspicion: the counter, the
// detection latency relative to the validated round's end, and — when
// tracing — an instant carrying the suspicion kind.
func (ins *Instruments) ObserveSuspicion(s Suspicion, roundEnd time.Duration) {
	ins.Suspicions.Inc()
	if lat := s.At - roundEnd; lat >= 0 {
		ins.Latency.Observe(int64(lat / time.Millisecond))
	}
	if tr := ins.Trace; tr != nil {
		tr.Instant("suspicion", "detector", s.At, int32(s.By), s.Kind.String())
	}
}

// Deliver is the one outlet for a raised or adopted suspicion: the
// instruments (latency measured from (s.Round+1)·tau, the end of the
// validated round), then the run's sink — the suspicion log and, when the
// deployment closes the response loop, routing.(*Protocol).Respond teed in
// after it, so the instruments have run by the time the fabric reacts.
func (ins *Instruments) Deliver(s Suspicion, sink Sink, tau time.Duration) {
	ins.ObserveSuspicion(s, time.Duration(s.Round+1)*tau)
	sink(s)
}

// RoundSpan emits a validation-round span from round n's boundary to now on
// router tid's timeline (a no-op without a tracer).
func (ins *Instruments) RoundSpan(name string, n int, tau, now time.Duration, tid int32) {
	tr := ins.Trace
	if tr == nil {
		return
	}
	start := time.Duration(n) * tau
	if start > now {
		start = now
	}
	tr.Span(name, "detector", start, now, tid, "")
}
