// Package telemetry is routerwatch's instrumentation subsystem: a metrics
// registry of atomic counters, gauges and fixed-bucket histograms; a
// structured event tracer that records virtual-time-stamped spans and
// instants into a bounded ring buffer; exporters (Prometheus text format,
// JSON snapshot, Chrome trace-event JSON, plain-text timeline); and pprof
// wiring for the CLIs.
//
// # The disabled-path contract
//
// Telemetry is off by default and must cost nothing when off. Every
// instrument is a pointer whose methods are safe — and free — on a nil
// receiver: a disabled counter increment is a single nil-check, no
// allocation, no atomic. Subsystems resolve their instruments once at
// attach time (from a *Set that may be nil) and call them unconditionally
// on the hot path. The allocation-guard test (TestDisabledPathAllocs) pins
// this down with testing.AllocsPerRun: the exact instrument-call sequence
// the packet-forwarding hot path performs must report zero allocations when
// telemetry is disabled.
//
// Because instruments only *record* — they never feed values back into the
// simulation — enabling telemetry cannot perturb virtual time, RNG draws,
// or any canonical output: bitwise determinism of runs is untouched either
// way. Exported telemetry goes to stderr or to explicitly named files,
// never to stdout, so golden-stdout tests keep passing with every flag
// enabled.
//
// # Determinism of folded metrics
//
// Parallel trial fan-outs (internal/runner) give each trial its own
// Registry; the per-trial registries are folded in trial-index order with
// Registry.Merge. All instrument state is integer, so the folded snapshot
// is bitwise identical to the one a serial run over the same trials
// produces — mirroring the stats.Folded contract.
package telemetry

// Set bundles the instrumentation handles one run threads through its
// subsystems. A nil *Set means telemetry is disabled; all accessors are
// nil-safe and return nil instruments, which are themselves free to call.
type Set struct {
	// Metrics is the run's metric registry (nil = metrics disabled).
	Metrics *Registry
	// Trace is the run's event tracer (nil = tracing disabled).
	Trace *Tracer
	// PacketEvents additionally records per-packet data-plane instants
	// (enqueue/dequeue/drop) in the trace. These are high-volume — on a
	// long run they will evict control-plane milestones from the bounded
	// ring — so they are opt-in on top of an enabled tracer.
	PacketEvents bool
}

// New returns an enabled Set with a fresh registry and a tracer holding up
// to traceCap events (0 picks the tracer's default capacity).
func New(traceCap int) *Set {
	return &Set{Metrics: NewRegistry(), Trace: NewTracer(traceCap)}
}

// Registry returns the metric registry, nil when the set is nil/disabled.
func (s *Set) Registry() *Registry {
	if s == nil {
		return nil
	}
	return s.Metrics
}

// Tracer returns the event tracer, nil when the set is nil/disabled.
func (s *Set) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.Trace
}

// PacketTracer returns the tracer for per-packet data-plane events: the
// set's tracer when PacketEvents is on, nil otherwise. Hot paths resolve
// this once and call it unconditionally.
func (s *Set) PacketTracer() *Tracer {
	if s == nil || !s.PacketEvents {
		return nil
	}
	return s.Trace
}

// Enabled reports whether any instrumentation is live.
func (s *Set) Enabled() bool {
	return s != nil && (s.Metrics != nil || s.Trace != nil)
}
