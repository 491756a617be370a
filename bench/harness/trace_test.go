package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"routerwatch/bench/result"
	"routerwatch/internal/capture"
	"routerwatch/internal/network"
	"routerwatch/internal/protocol"
	"routerwatch/internal/routing"
	"routerwatch/internal/tcpsim"
	"routerwatch/internal/telemetry"
	"routerwatch/internal/topology"
)

// span is one timed call the harness made into a layer. Spans live in
// memory until the run ends; the spans of one iteration share Iter.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Parent int     `json:"parent"` // 0: no parent
	Iter   int     `json:"iter"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	// SelfS is the span's duration minus its children's.
	SelfS float64 `json:"self_s"`
}

// tracer collects spans around the harness's own calls.
type tracer struct {
	origin time.Time
	iter   int // stamped on every span added
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent, Iter: t.iter,
		StartS: start.Sub(t.origin).Seconds(), EndS: end.Sub(t.origin).Seconds(),
	})
	return id
}

// begin opens a span now; end closes it and returns how long it lasted.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) end(id int) float64 {
	s := &t.spans[id-1]
	s.EndS = time.Since(t.origin).Seconds()
	return s.EndS - s.StartS
}

// timed runs fn inside a span and returns how long it took.
func (t *tracer) timed(name string, parent int, fn func()) float64 {
	id := t.begin(name, parent)
	fn()
	return t.end(id)
}

// finish fills in every span's self time.
func (t *tracer) finish() []span {
	for i := range t.spans {
		t.spans[i].SelfS = t.spans[i].EndS - t.spans[i].StartS
	}
	for _, s := range t.spans {
		if s.Parent > 0 {
			t.spans[s.Parent-1].SelfS -= s.EndS - s.StartS
		}
	}
	return t.spans
}

// profileSeconds is the least a traced run keeps the CPU profiler on.
const profileSeconds = 2

// traceFile is what a traced run leaves in out/<workload>.trace.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Layers   map[string]float64 `json:"layers"`
	Absent   map[string]string  `json:"absent,omitempty"`
	Spans    []span             `json:"spans"`
}

// simProbe reads, from inside BeforeRun and after the run, what only the
// assembled scenario can tell: scheduler counts and the routing fabric's
// response.
type simProbe struct {
	res        *protocol.Result
	pending    int
	firedStart uint64
	recomputes int
}

func (p *simProbe) atStart(r *protocol.Result) {
	p.res = r
	sched := r.Net.Scheduler()
	p.pending, p.firedStart = sched.Pending(), sched.Fired()
	if r.Routing != nil {
		for _, d := range r.Routing.Daemons() {
			d.OnRecompute(func(time.Duration) { p.recomputes++ })
		}
	}
}

// runTraced produces the per-layer metrics. Nothing it measures feeds an
// end-to-end metric: the profiled iteration doubles as the warm-up, then
// untraced reference iterations alternate with traced ones (a
// telemetry.Set passed in, spans recorded) so that drift in the host's
// speed cancels out of telemetry.overhead_frac.
func runTraced(cfg config, name string) (*result.Run, error) {
	w, setup, err := open(cfg, name)
	if err != nil {
		return nil, err
	}
	defer w.close()
	run := newRun(w, "traced")
	run.SetupS, run.RefDigest = setup, w.refDigest
	tr := newTracer()
	layers := make(map[string]float64)
	absent := make(map[string]string)

	// A smoke-sized iteration is over before the profiler's first sample.
	profile, profErr := "", errors.New("no CPU profile is taken of a smoke-sized run")
	stopProfile := func() {}
	if !cfg.quick {
		work := filepath.Join(cfg.dir, ".work")
		if err := os.MkdirAll(work, 0o755); err != nil {
			return nil, err
		}
		profile = filepath.Join(work, fmt.Sprintf("%s-%d.cpu.pprof", name, os.Getpid()))
		defer os.Remove(profile)
		if stop, err := telemetry.StartCPUProfile(profile); err != nil {
			profErr = err
		} else {
			profErr, stopProfile = nil, stop
		}
	}
	profiling := time.Now()
	run.Warmup = w.iterate(w.spec, w.countingTelemetry(), tr, nil)
	// At 100 samples a second, a short iteration is repeated until the
	// profile can tell the layers apart.
	for !cfg.quick && time.Since(profiling) < profileSeconds*time.Second {
		run.Extra = append(run.Extra, sameVerdicts(run, "profiled", w.iterate(w.spec, nil, tr, nil)))
	}
	stopProfile()

	pairs := cfg.iters
	if pairs == 0 {
		pairs = max(1, int(cfg.seconds/(2*run.Warmup.WallS)))
	}
	var traced []result.Iteration
	var probe simProbe
	var tel *telemetry.Set
	for i := 1; i <= pairs; i++ {
		run.Timed = append(run.Timed, w.iterate(w.spec, nil, nil, nil))
		tr.iter = i
		probe = simProbe{}
		tel = telemetry.New(0)
		traced = append(traced, sameVerdicts(run, "traced", w.iterate(w.spec, tel, tr, probe.atStart)))
	}
	tr.iter = 0
	run.Extra = append(run.Extra, traced...)

	ref := medians(run.Timed)
	trc := medians(traced)
	layers["protocol.assemble_s"] = trc.AssembleS
	layers["protocol.run_s"] = trc.RunS
	layers["protocol.judge_s"] = trc.JudgeS
	layers["telemetry.overhead_frac"] = trc.WallS/ref.WallS - 1
	layers["runtime.gc_cycles"] = ref.GCCycles
	layers["runtime.gc_pause_ms"] = ref.GCPauseMS
	layers["runtime.gc_cpu_frac"] = ref.GCCPUFrac
	layers["runtime.heap_sys_mb"] = ref.HeapSysMB

	// Registry counts of the last traced iteration, summed over labels.
	counts := counterSums(tel.Registry().Snapshot())
	for metric, series := range map[string]string{
		"network.packets_injected":  "rw_packets_injected_total",
		"network.packets_forwarded": "rw_packets_forwarded_total",
		"network.packets_delivered": "rw_packets_delivered_total",
		"network.packets_dropped":   "rw_packets_dropped_total",
		"network.control_messages":  "rw_control_messages_total",
		"network.control_relays":    "rw_control_relays_total",
		"queue.enqueued":            "rw_queue_enqueued_total",
		"queue.dropped":             "rw_queue_dropped_total",
		"queue.dequeued_bytes":      "rw_queue_dequeued_bytes_total",
		"sim.events":                "rw_sim_events_total",
		"detector.fingerprints":     "rw_detector_fingerprints_total",
		"detector.summaries":        "rw_detector_summaries_total",
		"detector.summary_bytes":    "rw_detector_summary_bytes_total",
		"detector.rounds":           "rw_detector_rounds_total",
		"detector.suspicions":       "rw_detector_suspicions_total",
		"detector.batch_entries":    "rw_detector_batch_entries",
	} {
		layers[metric] = float64(counts[series])
	}
	layers["sim.events_per_s"] = layers["sim.events"] / (trc.AssembleS + trc.RunS)
	layers["sim.pending_at_start"] = float64(probe.pending)

	// The layers under protocol.assemble, timed on their own.
	var g *topology.Graph
	var buildErr error
	build := tr.timed("topology.build", 0, func() { g, buildErr = w.spec.Topology.Build() })
	if buildErr != nil {
		return nil, buildErr
	}
	layers["topology.build_s"] = build
	layers["topology.nodes"] = float64(g.NumNodes())
	layers["topology.links"] = float64(len(g.Links()))
	layers["network.new_s"] = tr.timed("network.new", 0, func() {
		network.New(g, network.Options{Seed: w.spec.Seed, ProcessingJitter: w.spec.Jitter.D()})
	})

	var excl *routing.Exclusions
	if w.spec.Routing != nil && probe.res != nil {
		layers["routing.converge_s"] = trc.AssembleS - build - layers["network.new_s"]
		layers["routing.converge_events"] = float64(probe.firedStart)
		layers["routing.respond_recomputes"] = float64(probe.recomputes)
		excl = probe.res.Routing.Daemon(0).Exclusions()
		layers["routing.exclusions"] = float64(excl.Len())
	} else {
		for _, m := range []string{"routing.converge_s", "routing.converge_events", "routing.respond_recomputes", "routing.exclusions"} {
			absent[m] = "the workload attaches no routing fabric"
		}
	}

	if err := w.floors(tr, setup, ref, layers, absent); err != nil {
		return nil, err
	}
	w.variants(tr, run, ref, layers, absent)
	if ov, ok := layers["detector.overhead_s"]; ok && layers["detector.fingerprints"] > 0 {
		layers["detector.ns_per_fingerprint"] = ov / layers["detector.fingerprints"] * 1e9
	} else {
		absent["detector.ns_per_fingerprint"] = "the detector counted no fingerprints"
	}

	probes(tr, cfg.quick, g, excl, max(probe.pending, 1), layers, absent)
	layers["sim.kernel_s_est"] = layers["sim.events"] * layers["sim.kernel_ns_per_event"] / 1e9

	var shares map[string]float64
	if profErr == nil {
		shares, profErr = profileShares(profile)
	}
	for _, l := range result.Layers {
		if profErr != nil {
			absent["share."+l] = profErr.Error()
		}
		layers["share."+l] = shares[l]
	}

	for _, m := range result.PerLayer {
		if _, ok := layers[m.Name]; !ok {
			layers[m.Name] = 0
			if absent[m.Name] == "" {
				absent[m.Name] = "not measured on this workload"
			}
		}
	}
	run.Layers, run.Absent = layers, absent
	run.PeakRSSMB = peakRSSMB()

	out := cfg.out
	if out == "" {
		out = filepath.Join(cfg.dir, "out")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	run.TraceFile = filepath.Join(out, name+".trace.json")
	data, err := json.MarshalIndent(traceFile{
		Workload: name, Seed: cfg.seed, Layers: layers, Absent: absent, Spans: tr.finish(),
	}, "", " ")
	if err != nil {
		return nil, err
	}
	return run, os.WriteFile(run.TraceFile, append(data, '\n'), 0o644)
}

// sameVerdicts fails an extra iteration whose verdicts should equal
// iteration 0's and do not.
func sameVerdicts(run *result.Run, what string, it result.Iteration) result.Iteration {
	if it.Failure == "" && it.Digest != run.Warmup.Digest {
		it.Failure = fmt.Sprintf("%s iteration: verdict digest %.12s differs from iteration 0's %.12s", what, it.Digest, run.Warmup.Digest)
	}
	return it
}

// floors measures the workload with no detector attached — the
// sim+network+queue floor for a simulation, open+decode for a replay — and
// from it the detector's overhead.
func (w *workload) floors(tr *tracer, setup []float64, ref iterMedians, layers map[string]float64, absent map[string]string) error {
	if w.replay {
		absent["network.bare_run_s"] = "a replay has no simulated data plane"
		id := tr.begin("capture.decode", 0)
		var env *capture.TraceEnv
		var err error
		open := tr.timed("capture.open", id, func() {
			env, err = capture.OpenTrace(w.traceDir, capture.TraceOptions{})
		})
		if err != nil {
			return err
		}
		env.Run(0)
		err = env.Err()
		env.Close()
		decode := tr.end(id)
		if err != nil {
			return err
		}
		var bytes int64
		files, _ := filepath.Glob(filepath.Join(w.traceDir, "*"))
		for _, f := range files {
			if st, err := os.Stat(f); err == nil {
				bytes += st.Size()
			}
		}
		layers["capture.open_s"] = open
		layers["capture.decode_s"] = decode
		layers["capture.records"] = float64(w.packets)
		layers["capture.records_per_s"] = float64(w.packets) / decode
		layers["capture.trace_mb"] = float64(bytes) / 1e6
		layers["capture.record_s"] = result.Median(setup)
		layers["detector.overhead_s"] = ref.AssembleS + ref.RunS - decode
		return nil
	}
	for _, m := range []string{"capture.record_s", "capture.trace_mb", "capture.records", "capture.open_s", "capture.decode_s", "capture.records_per_s"} {
		absent[m] = "the workload replays no trace"
	}

	var bare float64
	if w.desc.Scenario != nil {
		bare = w.bareTCP(tr)
	} else {
		// Static shortest paths stand in for the routing fabric: the floor
		// is the data plane's, and AssembleSim would attach the fabric
		// without the spec's scale options.
		spec := *w.spec
		spec.Routing, spec.Shards = nil, 0
		be, err := protocol.AssembleSim(&spec, nil)
		if err != nil {
			return err
		}
		bare = tr.timed("network.bare_run", 0, func() { be.Run(0) })
		be.Close()
	}
	layers["network.bare_run_s"] = bare
	layers["detector.overhead_s"] = ref.RunS - bare
	return nil
}

// bareTCP is the run phase of chi's canonical scenario with chi left out:
// the same star topology, TCP sources, seed offset and jitter default as
// catalog.runChiScenario, advanced to the attack's start off the clock and
// then timed to the spec's horizon.
func (w *workload) bareTCP(tr *tracer) float64 {
	st := w.spec.Topology.BuildChi()
	jitter := w.spec.Jitter.D()
	if jitter == 0 {
		jitter = 2 * time.Millisecond
	}
	net := network.New(st.Graph, network.Options{Seed: w.spec.Seed + 1, ProcessingJitter: jitter})
	man := tcpsim.NewManager(net)
	for i, src := range st.Sources {
		man.StartFlow(tcpsim.FlowConfig{
			Src: src, Dst: st.Sinks[i%len(st.Sinks)],
			Start: time.Duration(i) * 200 * time.Millisecond,
		})
	}
	net.Run(attackStart(w.spec, 0))
	return tr.timed("network.bare_run", 0, func() { net.Run(w.spec.Duration.D()) })
}

// variants runs the workload's spec with one knob turned, where the
// difference is itself a per-layer number.
func (w *workload) variants(tr *tracer, run *result.Run, ref iterMedians, layers map[string]float64, absent map[string]string) {
	if r := w.spec.Routing; r != nil && r.Respond {
		spec, quiet := *w.spec, *r
		quiet.Respond = false
		spec.Routing = &quiet
		tr.iter = len(run.Timed) + 1
		it := w.iterate(&spec, nil, tr, nil)
		run.Extra = append(run.Extra, it)
		layers["routing.respond_s"] = ref.RunS - it.RunS
	} else {
		absent["routing.respond_s"] = "the spec does not wire suspicions into routing"
	}
	if w.shards8 {
		spec := *w.spec
		spec.Shards = 8
		tr.iter = len(run.Timed) + 2
		it := sameVerdicts(run, "shards=8", w.iterate(&spec, nil, tr, nil))
		run.Extra = append(run.Extra, it)
		layers["sim.shards8_wall_ratio"] = it.WallS / ref.WallS
	} else {
		absent["sim.shards8_wall_ratio"] = "measured on isp-converge only"
	}
	tr.iter = 0
}

// iterMedians are the per-field medians of some iterations.
type iterMedians struct {
	WallS, AssembleS, RunS, JudgeS            float64
	GCCycles, GCPauseMS, GCCPUFrac, HeapSysMB float64
}

func medians(its []result.Iteration) iterMedians {
	med := func(f func(result.Iteration) float64) float64 { return result.Median(result.Column(its, f)) }
	return iterMedians{
		WallS:     med(func(it result.Iteration) float64 { return it.WallS }),
		AssembleS: med(func(it result.Iteration) float64 { return it.AssembleS }),
		RunS:      med(func(it result.Iteration) float64 { return it.RunS }),
		JudgeS:    med(func(it result.Iteration) float64 { return it.JudgeS }),
		GCCycles:  med(func(it result.Iteration) float64 { return float64(it.GCCycles) }),
		GCPauseMS: med(func(it result.Iteration) float64 { return it.GCPauseMS }),
		GCCPUFrac: med(func(it result.Iteration) float64 { return it.GCCPUFrac }),
		HeapSysMB: med(func(it result.Iteration) float64 { return it.HeapSysMB }),
	}
}

// counterSums adds up a snapshot's counters (and histogram sums) by metric
// base name, over all label sets.
func counterSums(s telemetry.Snapshot) map[string]int64 {
	base := func(name string) string {
		if i := strings.IndexByte(name, '{'); i >= 0 {
			return name[:i]
		}
		return name
	}
	sums := make(map[string]int64)
	for _, c := range s.Counters {
		sums[base(c.Name)] += c.Value
	}
	for _, h := range s.Histograms {
		sums[base(h.Name)] += h.Sum
	}
	return sums
}
