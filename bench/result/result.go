// Package result is the record one harness process hands to rwbench and
// the arithmetic that turns it into the benchmark's named metrics. It is
// clock-free: every number in a Run was measured by bench/harness.
package result

import (
	"fmt"
	"sort"
)

// Metric names one benchmark metric. Bound is the share of the baseline
// median by which an end-to-end metric may worsen before it counts as a
// regression; per-layer metrics carry none.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// PerSeed marks a metric that is a function of the workload seed alone:
	// exact between runs of one seed, meaningless between runs of different
	// seeds. BENCHMARK.json, whose runs each take another seed, leaves it
	// out; rwbench's own sets and -compare keep it.
	PerSeed bool `json:"-"`
}

// Workload names one workload and why it exists.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Gate marks the workloads BENCHMARK.json lists, which the driver that
	// accepts a PR runs 22 times each inside one time cap. The cap buys
	// either five workloads measured for 18 seconds a run or three measured
	// for 36, and on this host only the longer run is steady (see "Measured
	// noise" in bench/README.md). rwbench's own sets and -compare cover all
	// five.
	Gate bool `json:"-"`
}

// Workloads are the five fixed workloads, in run order.
var Workloads = []Workload{
	{Name: "isp-converge", Gate: true, Why: "cold LSA flood + SPF with an empty exclusion set on a 500-router ISP graph; the data plane does little, so routing changes show here"},
	{Name: "isp-respond", Why: "the Fatih response path: suspicion, alert flood and line-graph recompute with non-empty exclusions on a 300-router ISP graph"},
	{Name: "mesh-forward", Gate: true, Why: "400k packets over static shortest paths: event kernel, forwarding, queues and the pik2 fingerprint/summary/sign path; routing does nothing"},
	{Name: "chi-tcp", Gate: true, Why: "tcpsim through a bottleneck queue with chi's batched queue replay and aggregate-MAC verify; no routing and no pik2"},
	{Name: "trace-replay", Why: "the same pik2 detector driven by recorded pcap traces, so decode and per-router merge dominate and sim forwarding is idle"},
}

// EndToEnd are the metrics a user of the system sees, measured with
// tracing, telemetry and profiling off. See bench/README.md for how each
// bound relates to the spread measured between runs of one commit.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "assemble_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "packets_per_s", Unit: "pkt/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_iter", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "alloc_mb_per_iter", Unit: "MB", Better: "lower", Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	// The χ detector's latency is a draw from a distribution over which
	// packets the attacker happens to drop: 2 to 24 simulated seconds
	// across seeds at this commit.
	{Name: "detect_latency_sim_s", Unit: "sim_s", Better: "lower", Bound: 0, PerSeed: true},
	{Name: "suspicion_precision", Unit: "routers", Better: "lower", Bound: 0},
	{Name: "ops_ok_frac", Unit: "fraction", Better: "higher", Bound: 0},
}

// Layers are the modules that get per-layer metrics and a share of the CPU
// profile. "runtime" is the Go allocator, GC and scheduler; "other" is any
// routerwatch package not listed.
var Layers = []string{
	"sim", "routing", "network", "queue", "packet", "summary", "auth",
	"detector", "tcpsim", "capture", "topology", "telemetry", "protocol",
	"runtime", "other",
}

// PerLayer are the traced run's metrics. A metric that does not apply to a
// workload reads 0 there and is listed, with the reason, under "absent" in
// the workload's trace file.
var PerLayer = perLayer()

func perLayer() []Metric {
	m := []Metric{
		{Name: "protocol.assemble_s", Unit: "s", Better: "lower"},
		{Name: "protocol.run_s", Unit: "s", Better: "lower"},
		{Name: "protocol.judge_s", Unit: "s", Better: "lower"},
		{Name: "topology.build_s", Unit: "s", Better: "lower"},
		{Name: "topology.nodes", Unit: "count", Better: "lower"},
		{Name: "topology.links", Unit: "count", Better: "lower"},
		{Name: "network.new_s", Unit: "s", Better: "lower"},
		{Name: "network.bare_run_s", Unit: "s", Better: "lower"},
		{Name: "network.packets_injected", Unit: "count", Better: "lower"},
		{Name: "network.packets_forwarded", Unit: "count", Better: "lower"},
		{Name: "network.packets_delivered", Unit: "count", Better: "higher"},
		{Name: "network.packets_dropped", Unit: "count", Better: "lower"},
		{Name: "network.control_messages", Unit: "count", Better: "lower"},
		{Name: "network.control_relays", Unit: "count", Better: "lower"},
		{Name: "queue.enqueued", Unit: "count", Better: "lower"},
		{Name: "queue.dropped", Unit: "count", Better: "lower"},
		{Name: "queue.dequeued_bytes", Unit: "count", Better: "lower"},
		{Name: "queue.droptail_ns_per_pkt", Unit: "ns", Better: "lower"},
		{Name: "queue.red_ns_per_pkt", Unit: "ns", Better: "lower"},
		{Name: "routing.converge_s", Unit: "s", Better: "lower"},
		{Name: "routing.converge_events", Unit: "count", Better: "lower"},
		{Name: "routing.spf_table_ms", Unit: "ms", Better: "lower"},
		{Name: "routing.spf_excl_table_ms", Unit: "ms", Better: "lower"},
		{Name: "routing.respond_recomputes", Unit: "count", Better: "lower"},
		{Name: "routing.exclusions", Unit: "count", Better: "lower"},
		{Name: "routing.respond_s", Unit: "s", Better: "lower"},
		{Name: "sim.events", Unit: "count", Better: "lower"},
		{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
		{Name: "sim.pending_at_start", Unit: "count", Better: "lower"},
		{Name: "sim.kernel_ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "sim.kernel_s_est", Unit: "s", Better: "lower"},
		{Name: "sim.shards8_wall_ratio", Unit: "ratio", Better: "lower"},
		{Name: "packet.fingerprint_ns", Unit: "ns", Better: "lower"},
		{Name: "summary.fpset_add_ns", Unit: "ns", Better: "lower"},
		{Name: "summary.fpset_encode_ns_per_fp", Unit: "ns", Better: "lower"},
		{Name: "summary.cbloom_add_ns", Unit: "ns", Better: "lower"},
		{Name: "summary.reconcile_us", Unit: "us", Better: "lower"},
		{Name: "auth.sign_ns", Unit: "ns", Better: "lower"},
		{Name: "auth.verify_ns", Unit: "ns", Better: "lower"},
		{Name: "auth.signbatch_ns_per_msg", Unit: "ns", Better: "lower"},
		{Name: "auth.aggregate_verify_ns_per_tag", Unit: "ns", Better: "lower"},
		{Name: "detector.overhead_s", Unit: "s", Better: "lower"},
		{Name: "detector.fingerprints", Unit: "count", Better: "lower"},
		{Name: "detector.summaries", Unit: "count", Better: "lower"},
		{Name: "detector.summary_bytes", Unit: "count", Better: "lower"},
		{Name: "detector.rounds", Unit: "count", Better: "lower"},
		{Name: "detector.suspicions", Unit: "count", Better: "lower"},
		{Name: "detector.batch_entries", Unit: "count", Better: "lower"},
		{Name: "detector.ns_per_fingerprint", Unit: "ns", Better: "lower"},
		{Name: "capture.record_s", Unit: "s", Better: "lower"},
		{Name: "capture.trace_mb", Unit: "MB", Better: "lower"},
		{Name: "capture.records", Unit: "count", Better: "lower"},
		{Name: "capture.open_s", Unit: "s", Better: "lower"},
		{Name: "capture.decode_s", Unit: "s", Better: "lower"},
		{Name: "capture.records_per_s", Unit: "1/s", Better: "higher"},
		{Name: "telemetry.overhead_frac", Unit: "fraction", Better: "lower"},
		{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
		{Name: "runtime.gc_cpu_frac", Unit: "fraction", Better: "lower"},
		{Name: "runtime.heap_sys_mb", Unit: "MB", Better: "lower"},
	}
	for _, l := range Layers {
		m = append(m, Metric{Name: "share." + l, Unit: "fraction", Better: "lower"})
	}
	return m
}

// Iteration is one closed-loop iteration of a workload: spec in, judged
// verdicts out.
type Iteration struct {
	WallS     float64 `json:"wall_s"`
	AssembleS float64 `json:"assemble_s"`
	RunS      float64 `json:"run_s"`
	JudgeS    float64 `json:"judge_s"`
	// Mallocs and AllocBytes are runtime.MemStats deltas over the iteration.
	Mallocs    uint64 `json:"mallocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	// Packets is the offered data packets of the run phase (recorded packet
	// events for a replay).
	Packets int64 `json:"packets"`
	// DetectLatencySimS is simulated seconds from attack start to the first
	// suspicion implicating a faulty router.
	DetectLatencySimS float64 `json:"detect_latency_sim_s"`
	Precision         int     `json:"suspicion_precision"`
	Suspicions        int     `json:"suspicions"`
	// The Go runtime over the iteration: completed GC cycles, their pause
	// time, the GC's share of CPU time, and heap memory held from the OS at
	// the end.
	GCCycles  uint32  `json:"gc_cycles"`
	GCPauseMS float64 `json:"gc_pause_ms"`
	GCCPUFrac float64 `json:"gc_cpu_frac"`
	HeapSysMB float64 `json:"heap_sys_mb"`
	// Digest is the SHA-256 of the canonical suspicion log.
	Digest string `json:"digest"`
	// Failure says why the iteration failed; empty means it passed.
	Failure string `json:"failure,omitempty"`
}

// Run is everything one harness process measured.
type Run struct {
	Workload   string `json:"workload"`
	Mode       string `json:"mode"`
	Seed       int64  `json:"seed"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// SetupS has one entry per repetition of loading the inputs (spec
	// decode, option parse, trace recording).
	SetupS []float64 `json:"setup_s"`
	// Warmup is iteration 0, untimed; Timed are the measured iterations.
	Warmup Iteration   `json:"warmup"`
	Timed  []Iteration `json:"timed"`
	// RefDigest, when set, is the digest every iteration must reproduce
	// (trace-replay: the recording simulation's).
	RefDigest string  `json:"ref_digest,omitempty"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Extra are the other iterations a traced run makes — with telemetry
	// on, or with one knob of the spec turned. Each carries its own
	// Failure; their digests are not compared with iteration 0's here,
	// because a turned knob may legitimately change the verdicts.
	Extra []Iteration `json:"extra,omitempty"`
	// Layers, Absent and TraceFile are filled by a traced run only.
	Layers    map[string]float64 `json:"layers,omitempty"`
	Absent    map[string]string  `json:"absent,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// Stat is a run's reading of one metric, with the sample it was taken from:
// its size, median and range. Value is the median, except for a timing,
// where it is the best iteration of the run (see fastest).
type Stat struct {
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Summary is one run reduced to the end-to-end metrics.
type Summary struct {
	Metrics   map[string]Stat `json:"metrics"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Digest    string          `json:"digest"`
	// Failures lists the distinct reasons iterations failed.
	Failures []string `json:"failures,omitempty"`
}

// Median returns the median of xs (the mean of the middle two for an even
// count), or 0 for none.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Column is one field of some iterations.
func Column(its []Iteration, f func(Iteration) float64) []float64 {
	xs := make([]float64, 0, len(its))
	for _, it := range its {
		xs = append(xs, f(it))
	}
	return xs
}

func statOf(xs []float64) Stat {
	if len(xs) == 0 {
		return Stat{}
	}
	st := Stat{Value: Median(xs), N: len(xs), Median: Median(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		if x < st.Min {
			st.Min = x
		}
		if x > st.Max {
			st.Max = x
		}
	}
	return st
}

// fastest and highest read a timing as the run's best iteration. Every
// iteration of a run does the same work — same spec, same seed, verdict
// digests required equal — so the iterations differ only by what the host
// added, and the host only ever adds: this box runs 1.2 to 1.5 times slower
// for minutes at a time, and the median of a run that falls into such a
// phase moves with it, while its best iteration moves less, and less the
// longer the run (150 back-to-back mesh-forward iterations cut into runs
// of ten: quartile spread of the medians 22%, of the minima 7%). The median
// stays beside it in the Stat. See "Measured noise" in bench/README.md.
func fastest(xs []float64) Stat {
	st := statOf(xs)
	st.Value = st.Min
	return st
}

func highest(xs []float64) Stat {
	st := statOf(xs)
	st.Value = st.Max
	return st
}

// Summarize reduces a run to the end-to-end metrics. Every iteration, the
// warm-up included, is an attempted operation; one fails on its own
// Failure, on a digest different from iteration 0's, or on a digest
// different from the run's RefDigest.
func Summarize(r *Run) Summary {
	s := Summary{Metrics: make(map[string]Stat), Digest: r.Warmup.Digest}
	want := r.Warmup.Digest
	if r.RefDigest != "" {
		want = r.RefDigest
	}
	seen := make(map[string]bool)
	fail := func(reason string) {
		s.Failed++
		if !seen[reason] {
			seen[reason] = true
			s.Failures = append(s.Failures, reason)
		}
	}
	for i, it := range append([]Iteration{r.Warmup}, r.Timed...) {
		s.Attempted++
		switch {
		case it.Failure != "":
			fail(it.Failure)
		case it.Digest != want:
			fail(fmt.Sprintf("iteration %d: verdict digest %.12s differs from %.12s", i, it.Digest, want))
		}
	}
	for _, it := range r.Extra {
		s.Attempted++
		if it.Failure != "" {
			fail(it.Failure)
		}
	}

	col := func(f func(Iteration) float64) []float64 { return Column(r.Timed, f) }
	// Everything before the first timed iteration: the fastest load of the
	// inputs, and the warm-up iteration in which caches fill and lazy
	// set-up finishes. The load alone takes microseconds on four workloads
	// and read 40% apart between processes of one commit.
	load := statOf(r.SetupS)
	s.Metrics["setup_s"] = statOf([]float64{load.Min + r.Warmup.WallS})
	s.Metrics["wall_s"] = fastest(col(func(it Iteration) float64 { return it.WallS }))
	s.Metrics["assemble_s"] = fastest(col(func(it Iteration) float64 { return it.AssembleS }))
	s.Metrics["packets_per_s"] = highest(col(func(it Iteration) float64 {
		if it.RunS <= 0 {
			return 0
		}
		return float64(it.Packets) / it.RunS
	}))
	s.Metrics["allocs_per_iter"] = statOf(col(func(it Iteration) float64 { return float64(it.Mallocs) }))
	s.Metrics["alloc_mb_per_iter"] = statOf(col(func(it Iteration) float64 { return float64(it.AllocBytes) / 1e6 }))
	s.Metrics["peak_rss_mb"] = statOf([]float64{r.PeakRSSMB})
	s.Metrics["detect_latency_sim_s"] = statOf(col(func(it Iteration) float64 { return it.DetectLatencySimS }))
	s.Metrics["suspicion_precision"] = statOf(col(func(it Iteration) float64 { return float64(it.Precision) }))
	s.Metrics["ops_ok_frac"] = statOf([]float64{1 - float64(s.Failed)/float64(s.Attempted)})
	return s
}
