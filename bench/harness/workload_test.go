package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"routerwatch/bench/result"
	"routerwatch/internal/capture"
	"routerwatch/internal/detector"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	_ "routerwatch/internal/protocol/catalog"
	"routerwatch/internal/telemetry"
)

// config is what the command line fixes for a run.
type config struct {
	dir     string // the bench directory
	seed    int64
	seconds float64 // measuring window
	iters   int     // > 0: exactly this many timed iterations
	// out is where a traced run writes its trace file (default dir/out).
	out string

	// The smoke tests' knobs: shrink scales the loaded spec down, quick
	// cuts the probes' fixed work a hundredfold, and corrupt edits each
	// suspicion log before it is judged, to prove the verdict check can
	// fail.
	shrink  func(*protocol.Spec)
	quick   bool
	corrupt func(*detector.Log)
}

// setupReps is how many times a run repeats loading its inputs; setup_s
// counts the fastest (see result.Summarize). Recording a trace is slow
// enough that three repetitions are steady; decoding a spec takes
// microseconds and needs many.
const (
	setupRepsReplay = 3
	setupRepsSim    = 201
)

// traits are what the harness must know about a workload beyond its spec.
type traits struct {
	// replay: set-up records the spec's simulation as a trace, and an
	// iteration replays the trace.
	replay bool
	// shards8: the traced run adds an iteration at shards=8.
	shards8 bool
}

var workloadTraits = map[string]traits{
	"isp-converge": {shards8: true},
	"isp-respond":  {},
	"mesh-forward": {},
	"chi-tcp":      {},
	"trace-replay": {replay: true},
}

// workload is one loaded workload: the generated protocol.Spec is all the
// program ever sees of it.
type workload struct {
	cfg  config
	name string
	spec *protocol.Spec
	desc protocol.Descriptor
	opts any // parsed protocol options

	traits

	// A replay's trace directory and the digest its iterations must
	// reproduce.
	traceDir  string
	refDigest string // the recording simulation's verdict digest

	// packets is the data packets one iteration offers: fixed by the spec's
	// traffic list, or the packet events recorded for a replay. A spec with
	// no traffic list (chi's TCP sources) leaves it 0 until the warm-up
	// iteration has counted the injections; see countingTelemetry.
	packets int64
}

// setup loads the workload from its committed spec and, for a replay,
// records the trace. It is everything a run does before its first
// iteration, and is safe to repeat.
func (w *workload) setup() error {
	data, err := os.ReadFile(filepath.Join(w.cfg.dir, "workloads", w.name+".json"))
	if err != nil {
		return err
	}
	spec, err := protocol.DecodeSpec(data)
	if err != nil {
		return err
	}
	// The workload seed drives the attacker's private RNG: which packets
	// the faulty router drops. The topology, the traffic matrix and the
	// network's own streams stay as committed, because they define the
	// workload: a matrix that overloads an access link makes Πk+2's static
	// loss threshold accuse correct routers, which is a different scenario
	// and not another sample of this one.
	for _, a := range spec.AttackList() {
		a.Seed = w.cfg.seed
	}
	if w.cfg.shrink != nil {
		w.cfg.shrink(spec)
	}
	w.spec = spec
	if w.desc, err = protocol.Lookup(spec.Protocol); err != nil {
		return err
	}
	if len(spec.Options) > 0 {
		if w.opts, err = w.desc.ParseOptions(spec.Options); err != nil {
			return err
		}
	}
	if !w.replay {
		w.packets = offered(spec)
		return nil
	}
	return w.record()
}

// record runs spec in the simulator with a recorder on every router and
// keeps the simulation's verdict digest for the replays to reproduce.
func (w *workload) record() error {
	var (
		rec    *capture.Recorder
		recErr error
		start  time.Duration
	)
	w.packets = 0
	res, err := protocol.Run(w.spec, protocol.RunOptions{BeforeRun: func(r *protocol.Result) {
		start = r.Net.Now()
		rec = capture.NewRecorder(w.traceDir, capture.RecorderOptions{})
		recErr = rec.Attach(r.Net)
		for _, rt := range r.Net.Routers() {
			rt.AddTap(func(network.Event) { w.packets++ })
		}
	}})
	if err != nil {
		return err
	}
	if recErr != nil {
		return recErr
	}
	if err := rec.Close(); err != nil {
		return err
	}
	v := judge(res.Log, faultyOf(res), attackStart(w.spec, start), w.desc.Precision)
	if v.failure != "" {
		return fmt.Errorf("recording simulation: %s", v.failure)
	}
	w.refDigest = v.digest
	return nil
}

// open prepares a workload: it runs the set-up reps times and returns the
// time each took.
func open(cfg config, name string) (*workload, []float64, error) {
	tr, ok := workloadTraits[name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	w := &workload{cfg: cfg, name: name, traits: tr}
	reps := setupRepsSim
	if w.replay {
		reps = setupRepsReplay
		// Inside the bench directory: a run writes nowhere else.
		work := filepath.Join(cfg.dir, ".work")
		if err := os.MkdirAll(work, 0o755); err != nil {
			return nil, nil, err
		}
		dir, err := os.MkdirTemp(work, name+"-")
		if err != nil {
			return nil, nil, err
		}
		w.traceDir = dir
	}
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, nil, fmt.Errorf("workload %s: %w", name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return w, times, nil
}

// close removes what set-up left on disk.
func (w *workload) close() {
	if w.traceDir != "" {
		os.RemoveAll(w.traceDir)
	}
}

// offered counts the data packets the spec's traffic injects.
func offered(spec *protocol.Spec) int64 {
	var n int64
	for _, t := range spec.Traffic {
		switch t.Kind {
		case "pair":
			n += 2 * int64(t.Count)
		case "mesh":
			pairs := t.Pairs
			if pairs == 0 {
				pairs = 100
			}
			n += int64(pairs) * int64(t.Count)
		default:
			n += int64(t.Count)
		}
	}
	return n
}

// attackStart is when the spec's attack can first bite: its configured
// start, or the moment traffic begins if that is later.
func attackStart(spec *protocol.Spec, trafficStart time.Duration) time.Duration {
	start := trafficStart
	for _, a := range spec.AttackList() {
		if s := a.Start.D(); s > start {
			start = s
		}
	}
	return start
}

// faultyOf is the run's ground truth: FaultySet, or Faulty alone when the
// set is empty (chi's scenario fills only the latter).
func faultyOf(res *protocol.Result) []packet.NodeID {
	if len(res.FaultySet) > 0 {
		return res.FaultySet
	}
	if res.Faulty >= 0 {
		return []packet.NodeID{res.Faulty}
	}
	return nil
}

// verdict is a judged suspicion log.
type verdict struct {
	digest     string
	latency    time.Duration
	precision  int
	suspicions int
	failure    string
}

// judge checks a suspicion log against ground truth with the §4.2.2
// checkers: a-Accuracy at the protocol's precision bound must hold for
// every suspicion, and some suspicion at or after the attack's start must
// implicate a faulty router.
func judge(log *detector.Log, faulty []packet.NodeID, start time.Duration, bound int) verdict {
	if log == nil {
		return verdict{failure: "run produced no suspicion log"}
	}
	all := log.All()
	h := sha256.New()
	for _, s := range all {
		fmt.Fprintln(h, s.String())
	}
	v := verdict{
		digest:     hex.EncodeToString(h.Sum(nil)),
		precision:  detector.Precision(log),
		suspicions: len(all),
		latency:    -1,
	}
	gt := detector.NewGroundTruth(faulty, nil)
	if bad := detector.CheckAccuracy(log, gt, bound); len(bad) > 0 {
		v.failure = fmt.Sprintf("%d suspicions violate %d-accuracy, first: %v", len(bad), bound, bad[0])
		return v
	}
	for _, s := range all {
		if s.At < start {
			continue
		}
		for _, r := range s.Segment {
			if gt.Faulty(r) && (v.latency < 0 || s.At-start < v.latency) {
				v.latency = s.At - start
			}
		}
	}
	if v.latency < 0 {
		v.failure = fmt.Sprintf("no suspicion at or after %v implicates a faulty router %v", start, faulty)
	}
	return v
}

// iterate runs one iteration of the workload with spec (the workload's
// own, or a variant of it) and returns it judged. tel is nil for every
// end-to-end measurement. atStart, when set, is called from the sim
// backend's BeforeRun hook, on the assembly side of the clock read.
func (w *workload) iterate(spec *protocol.Spec, tel *telemetry.Set, tr *tracer, atStart func(*protocol.Result)) (it result.Iteration) {
	m := startMeter()

	var (
		log      *detector.Log
		faulty   []packet.NodeID
		start    time.Duration
		runErr   error
		t0, tRun time.Time
	)
	t0 = time.Now()
	func() {
		defer func() {
			if p := recover(); p != nil {
				runErr = fmt.Errorf("panic: %v", p)
			}
		}()
		if w.replay {
			log, runErr = w.replayOnce(tel, &tRun)
			for _, a := range spec.AttackList() {
				faulty = append(faulty, packet.NodeID(a.Node))
			}
			start = attackStart(spec, 0)
			return
		}
		var injected *telemetry.Counter
		var before int64
		res, err := protocol.Run(spec, protocol.RunOptions{Telemetry: tel, BeforeRun: func(r *protocol.Result) {
			start = attackStart(spec, r.Net.Now())
			if w.packets == 0 {
				injected = tel.Registry().Counter("rw_packets_injected_total")
				before = injected.Value()
			}
			if atStart != nil {
				atStart(r)
			}
			tRun = time.Now()
		}})
		if runErr = err; err != nil {
			return
		}
		if injected != nil {
			w.packets = injected.Value() - before
		}
		log, faulty = res.Log, faultyOf(res)
	}()
	tJudge := time.Now()
	if tRun.IsZero() {
		tRun = tJudge
	}

	if runErr != nil {
		it.Failure = runErr.Error()
	} else {
		if w.cfg.corrupt != nil {
			w.cfg.corrupt(log)
		}
		v := judge(log, faulty, start, w.desc.Precision)
		it.Digest, it.Precision, it.Suspicions = v.digest, v.precision, v.suspicions
		it.DetectLatencySimS = v.latency.Seconds()
		it.Failure = v.failure
	}
	tEnd := time.Now()
	m.stop(&it)

	it.Packets = w.packets
	it.WallS = tEnd.Sub(t0).Seconds()
	it.AssembleS = tRun.Sub(t0).Seconds()
	it.RunS = tJudge.Sub(tRun).Seconds()
	it.JudgeS = tEnd.Sub(tJudge).Seconds()
	if tr != nil {
		id := tr.add("iteration", 0, t0, tEnd)
		tr.add("protocol.assemble", id, t0, tRun)
		tr.add("protocol.run", id, tRun, tJudge)
		tr.add("protocol.judge", id, tJudge, tEnd)
	}
	return it
}

// meter reads the Go runtime's accounts of the process before and after an
// iteration.
type meter struct {
	mem runtime.MemStats
	cpu cpuClasses
}

// startMeter collects garbage first, so that each iteration starts from the
// same heap and pays only for its own allocation.
func startMeter() *meter {
	runtime.GC()
	m := &meter{cpu: readCPUClasses()}
	runtime.ReadMemStats(&m.mem)
	return m
}

func (m *meter) stop(it *result.Iteration) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if cpu := readCPUClasses(); cpu.total > m.cpu.total {
		it.GCCPUFrac = (cpu.gc - m.cpu.gc) / (cpu.total - m.cpu.total)
	}
	it.GCCycles = mem.NumGC - m.mem.NumGC
	it.GCPauseMS = float64(mem.PauseTotalNs-m.mem.PauseTotalNs) / 1e6
	it.HeapSysMB = float64(mem.HeapSys) / 1e6
	it.Mallocs = mem.Mallocs - m.mem.Mallocs
	it.AllocBytes = mem.TotalAlloc - m.mem.TotalAlloc
}

// cpuClasses is the runtime's own accounting of CPU seconds.
type cpuClasses struct{ gc, total float64 }

func readCPUClasses() cpuClasses {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuClasses{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// replayOnce is a trace-replay iteration's work: open the trace, attach
// the detector, replay to the recorded horizon, close.
func (w *workload) replayOnce(tel *telemetry.Set, tRun *time.Time) (*detector.Log, error) {
	env, err := capture.OpenTrace(w.traceDir, capture.TraceOptions{Telemetry: tel})
	if err != nil {
		return nil, err
	}
	defer env.Close()
	hooks, log := protocol.LogHooks()
	if _, err := protocol.Attach(env, w.spec.Protocol, w.opts, hooks); err != nil {
		return nil, err
	}
	*tRun = time.Now()
	env.Run(0)
	return log, env.Err()
}

// runUntraced measures the end-to-end metrics: one untimed warm-up
// iteration, then timed iterations for the measuring window, all with
// tracing, telemetry and profiling off.
func runUntraced(cfg config, name string) (*result.Run, error) {
	w, setup, err := open(cfg, name)
	if err != nil {
		return nil, err
	}
	defer w.close()
	run := newRun(w, "untraced")
	run.SetupS, run.RefDigest = setup, w.refDigest

	run.Warmup = w.iterate(w.spec, w.countingTelemetry(), nil, nil)
	began := time.Now()
	// The window holds as many whole iterations as fit: one that would end
	// past it, going by the one before, is not started, so that a run takes
	// the time the caller planned for. Two are the least to take a median of.
	last := run.Warmup.WallS
	enough := func(n int) bool {
		if cfg.iters > 0 {
			return n >= cfg.iters
		}
		return n >= 2 && time.Since(began).Seconds()+last > cfg.seconds
	}
	for !enough(len(run.Timed)) {
		it := w.iterate(w.spec, nil, nil, nil)
		last = it.WallS
		run.Timed = append(run.Timed, it)
	}
	run.PeakRSSMB = peakRSSMB()
	return run, nil
}

// countingTelemetry is what the first iteration of a run is given: nil —
// telemetry off — when the packet count is already known, else a bare
// metrics registry, the only place the injected-packet count can be read
// from outside the program. The count is a function of the seed, so later
// iterations reuse it and run with telemetry off.
func (w *workload) countingTelemetry() *telemetry.Set {
	if w.packets > 0 {
		return nil
	}
	return &telemetry.Set{Metrics: telemetry.NewRegistry()}
}
