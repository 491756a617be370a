package routerwatch

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"maps"
	"math/bits"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"routerwatch/internal/attack"
	"routerwatch/internal/capture"
	"routerwatch/internal/detector"
	"routerwatch/internal/detector/chi"
	"routerwatch/internal/detector/pik2"
	"routerwatch/internal/mutation"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	_ "routerwatch/internal/protocol/catalog"
	"routerwatch/internal/runner"
	"routerwatch/internal/telemetry"
)

// TestDifferential is the one differential harness (DESIGN "Differential
// harness"): a verdict is a pure function of the traffic, so every cell of a
// row must render the same (*detector.Log).String() along each axis the row
// declares — backend (sim, or its recording replayed), exchange (full or
// reconcile, Detail blanked), telemetry (off or on) and workers (the cell
// list through runner.Map on one worker and on four; a fixture's concurrent
// replays are <row>/workers/replayN). Each cell is compared with the cell one
// axis nearer sim/full/off, so a failure reads TestDifferential/<row>/<axis>.
// A row may also pin sim/full/off to a digest, a literal transcript or a
// fixture's golden. RW_UPDATE_GOLDEN, set to anything, re-records the fixture
// and rewrites the golden; it never rewrites a pin or a literal, which are
// facts about the commits they were taken at.
func TestDifferential(t *testing.T) {
	var rows []*diffRow
	for _, r := range differentialRows(t) {
		t.Run(r.name, func(t *testing.T) {
			r.dir, r.done = t.TempDir(), make(chan struct{})
			rows = append(rows, r)
			t.Parallel()
			<-r.done
			r.check(t)
		})
	}
	// The rows -run selected, in table order (heaviest first), one per
	// worker; the subtests above only wait for theirs and compare.
	go runner.Map(runner.Config{}, len(rows), func(tr runner.Trial) struct{} {
		rows[tr.Index].compute()
		close(rows[tr.Index].done)
		return struct{}{}
	})
}

func differentialRows(t *testing.T) []*diffRow {
	line5 := loadSpec(t, "internal/capture/testdata/line5drop.json")
	// The digests were taken at b3ecda9, before Πk+2 stopped sending empty
	// summaries: the same verdicts at the same instants for the same reasons.
	// The routed rows' were re-taken when round boundaries became the
	// multiples of τ: a deployment attached at a judges round n at
	// (n+1)τ + µ, no longer a + (n+1)τ + µ. isp-converge's verdicts are
	// otherwise the same; the responding rows excise a round sooner, so
	// their post-response suspicions fall a round earlier. line-drop's was
	// re-taken once more when routing became one schedule: its routers, in
	// no region, all originate at t = 0, so it converges 4 ms sooner and
	// its traffic, scheduled from convergence, shifts with it.
	rows := []*diffRow{
		{name: "mesh-forward", spec: loadSpec(t, "bench/workloads/mesh-forward.json"),
			pin: "fa6be229afd88d8b091239ce"}, // 2 500 suspicions
		// Routed: its replay's clock must start where the recorder attached,
		// after convergence.
		{name: "isp-converge", spec: loadSpec(t, "bench/workloads/isp-converge.json"), axes: axBackend,
			pin: "24c0b9e91b61f3557bf348b2"}, // 4 500
		{name: "line5drop", spec: line5, axes: axBackend | axExchange | axTelemetry | axWorkers, chi: true,
			pin:     "b39faf0322a26a259ea37df3", // 10
			fixture: "internal/capture/testdata/line5drop", golden: "internal/capture/testdata/line5drop.golden"},
		{name: "abilene-pik2", spec: loadSpec(t, "internal/capture/testdata/abilene-pik2.json"),
			axes: axExchange | axTelemetry, pin: "158e18a220bf10ce58fd3fcb"}, // 22
		// Responding: every suspicion is announced through routing's response
		// and excised from the fabric.
		{name: "line-drop", spec: loadSpec(t, "internal/protocol/testdata/line-drop.json"),
			pin: "4457493ce410a5247a49d0c4"}, // 20
		{name: "isp-respond", spec: loadSpec(t, "bench/workloads/isp-respond.json"),
			pin: "7584b3ccde6e4ea1f272bffa"}, // 3 000
		// Fig 5.7: Fatih on Abilene, its canonical scenario, which assembles
		// itself (no BeforeRun): the log is read off its result.
		{name: "fatih", spec: fatihSpec(t), pin: "c3d6f2ed24690a1a5c291f8a"}, // 77
	}

	survs, err := mutation.LoadSurvivors("internal/mutation/testdata/survivors")
	if err != nil || len(survs) != 18 {
		t.Fatalf("%d survivors, 18 committed — corpus moved? %v", len(survs), err)
	}
	for _, s := range survs {
		// A committed evasion: its own protocol raised no suspicion at all at
		// 2aa5887 (the digest of an empty log), and raises none now.
		r := &diffRow{name: "survivor-" + strings.TrimSuffix(s.FileName(), ".json"), spec: s.Spec, pin: "e3b0c44298fc1c149afbf4c8"}
		if s.Spec.Protocol == "pik2" {
			r.axes = axExchange
		}
		rows = append(rows, r)
	}

	// Silence is the empty summary (DESIGN "Segment monitor"): a router that
	// eats every transiting summary is suspected exactly where an end holds
	// more than the thresholds allow it to have seen alone. busy is b3ecda9's
	// transcript restricted to the segment that carried the traffic.
	const busy = `t=1.25s r0 suspects <r0,r1,r2> round=0 kind=exchange-timeout conf=1.0000 
t=1.25s r2 suspects <r0,r1,r2> round=0 kind=exchange-timeout conf=1.0000 
t=1.2521s r1 suspects <r0,r1,r2> round=0 kind=traffic-validation conf=1.0000 
`
	for _, s := range []struct {
		name     string
		n, count int           // an n-router line, count packets 0→2 in round 0
		dropper  packet.NodeID // eats the summaries in transit
		want     string
	}{
		{"busy", 3, 50, 1, busy},      // both ends hear nothing and fail TV against ∅
		{"idle", 5, 50, 3, ""},        // r3 is the middle only of segments that carry nothing
		{"at-threshold", 3, 2, 1, ""}, // what boundary jitter alone can leave at one end
		{"over-threshold", 3, 3, 1, busy},
	} {
		spec := *line5
		spec.Name, spec.Attack, spec.Jitter, spec.Topology.N = "silence-"+s.name, nil, 0, s.n
		spec.Traffic = []protocol.TrafficSpec{{
			Kind: "stream", Src: 0, Dst: 2, Count: s.count, Size: 500, Flow: 1,
			Interval: protocol.Duration(time.Millisecond), Offset: protocol.Duration(100 * time.Millisecond),
		}}
		rows = append(rows, &diffRow{
			name: "silence-" + s.name, spec: &spec, axes: axExchange | axTelemetry | axWorkers, transcript: &s.want,
			before: func(res *protocol.Result) {
				res.Net.Router(s.dropper).SetBehavior(&attack.ControlDropper{Kinds: map[string]bool{pik2.KindSummary: true}})
			},
		})
	}
	return rows
}

// axis is one way two runs of a scenario may differ and must still agree. A
// cell is a set of the first three: those at their second value.
type axis uint8

const (
	axBackend axis = 1 << iota
	axExchange
	axTelemetry
	axWorkers
)

var cellNames = [...]string{"sim/full/off", "trace/full/off", "sim/reconcile/off", "trace/reconcile/off",
	"sim/full/on", "trace/full/on", "sim/reconcile/on", "trace/reconcile/on"}

// diffRow is one scenario, the axes it runs and what it is pinned to.
type diffRow struct {
	name   string
	spec   *protocol.Spec
	axes   axis
	before func(*protocol.Result) // applied to the assembled simulation
	// chi deploys χ beside Πk+2 with a fixed calibration: a replay has no
	// learning pass, so the calibration must be data.
	chi bool

	pin, fixture, golden string
	transcript           *string

	dir     string        // the row's recordings
	done    chan struct{} // closed once compute has filled in what follows
	cells   []axis
	out     [axWorkers]outcome // by cell, on one worker
	pool    []outcome          // the cell list again, on four
	replays []outcome          // the fixture replayed four times at once
}

// compute runs the row's cell list through runner.Map on one worker; for the
// workers axis, again on four, and its fixture four times at once.
func (r *diffRow) compute() {
	for c := axis(0); c < axWorkers; c++ {
		if c&^r.axes == 0 {
			r.cells = append(r.cells, c)
		}
	}
	serial, _ := runner.Map(runner.Config{Workers: 1}, len(r.cells), func(tr runner.Trial) outcome {
		return r.run(r.cells[tr.Index])
	})
	for i, c := range r.cells {
		r.out[c] = serial[i]
	}
	if r.axes&axWorkers != 0 {
		r.pool, _ = runner.Map(runner.Config{Workers: 4}, max(len(r.cells), 4), func(tr runner.Trial) outcome {
			return r.run(r.cells[tr.Index%len(r.cells)])
		})
		if r.fixture != "" {
			r.replays, _ = runner.Map(runner.Config{Workers: 4}, 4, func(runner.Trial) outcome {
				return r.replay(r.spec, nil, r.fixture)
			})
		}
	}
}

// check compares what compute left, one subtest per axis and expectation.
func (r *diffRow) check(t *testing.T) {
	for i, name := range []string{"backend", "exchange", "telemetry", "workers"} {
		a := axis(1) << i
		if r.axes&a == 0 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			if a == axWorkers {
				for j, o := range r.pool {
					c := r.cells[j%len(r.cells)]
					agree(t, cellNames[c]+" on 1 worker", r.out[c].render(false), cellNames[c]+" on 4", o.render(false))
				}
				for j, o := range r.replays {
					t.Run("replay"+strconv.Itoa(j), func(t *testing.T) {
						agree(t, "sim/full/off on 1 worker", r.out[0].render(false), r.fixture+" replayed on 4", o.render(false))
					})
				}
			}
			for _, c := range r.cells {
				// c's last axis is a: compare it with a at its reference value.
				if c != 0 && bits.Len8(uint8(c)) == i+1 {
					blank := a == axExchange
					agree(t, cellNames[c&^a], r.out[c&^a].render(blank), cellNames[c], r.out[c].render(blank))
				}
			}
		})
	}
	ref := r.out[0]
	if r.pin != "" {
		t.Run("pin", func(t *testing.T) {
			if ref.err != nil {
				t.Fatal(ref.err)
			}
			sum := sha256.Sum256([]byte(ref.logs[0].String()))
			agree(t, "the pin", r.pin, "the digest of sim/full/off", hex.EncodeToString(sum[:12]))
		})
	}
	if r.transcript != nil {
		t.Run("transcript", func(t *testing.T) {
			agree(t, "the literal", *r.transcript, "sim/full/off", ref.render(true))
		})
	}
	if r.golden != "" {
		t.Run("golden", func(t *testing.T) {
			if os.Getenv("RW_UPDATE_GOLDEN") != "" {
				agree(t, "sim/full/off", ref.render(false), "the re-recording", r.simulate(r.spec, nil, r.fixture).render(false))
				if err := os.WriteFile(r.golden, []byte(ref.render(false)), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(r.golden)
			if err != nil {
				t.Fatal(err)
			}
			agree(t, r.golden, string(golden), "sim/full/off", ref.render(false))
			agree(t, r.golden, string(golden), r.fixture+" replayed", r.replay(r.spec, nil, r.fixture).render(false))
		})
	}
}

// outcome is one run's suspicion logs: the scenario's own, then χ's.
type outcome struct {
	logs []*detector.Log
	err  error
}

// render is the run's transcript, under the golden's section headers when χ
// ran, with every Detail blanked when blank is set.
func (o outcome) render(blank bool) string {
	if o.err != nil {
		return "error: " + o.err.Error() + "\n"
	}
	var b strings.Builder
	for i, log := range o.logs {
		if len(o.logs) > 1 {
			b.WriteString([]string{"=== pik2 ===\n", "=== chi ===\n"}[i])
		}
		if blank {
			blanked := detector.NewLog()
			for _, s := range log.All() {
				s.Detail = ""
				blanked.Add(s)
			}
			log = blanked
		}
		b.WriteString(log.String())
	}
	return b.String()
}

// run executes one cell. A trace cell records the run into a fresh
// directory under r.dir and returns what the replay of it reaches.
func (r *diffRow) run(c axis) outcome {
	spec := r.spec
	if r.axes&axExchange != 0 {
		s := *spec
		s.Options = maps.Clone(s.Options)
		s.Options["exchange"] = [...]string{"full", "reconcile"}[c>>1&1]
		spec = &s
	}
	var tel *telemetry.Set // one set serves the recording and its replay
	if c&axTelemetry != 0 {
		tel = &telemetry.Set{Metrics: telemetry.NewRegistry(), Trace: telemetry.NewTracer(1 << 12), PacketEvents: true}
	}
	if c&axBackend == 0 {
		return r.simulate(spec, tel, "")
	}
	trace, err := os.MkdirTemp(r.dir, "trace-")
	if err != nil {
		return outcome{err: err}
	}
	if o := r.simulate(spec, tel, trace); o.err != nil {
		return o
	}
	return r.replay(spec, tel, trace)
}

// simulate runs spec in the simulator, recording every router's packet
// events into trace when it is set (compressed only for the committed
// fixture).
func (r *diffRow) simulate(spec *protocol.Spec, tel *telemetry.Set, trace string) outcome {
	var o outcome
	var rec *capture.Recorder
	res, err := protocol.Run(spec, protocol.RunOptions{Telemetry: tel, BeforeRun: func(res *protocol.Result) {
		o = r.observe(res.Env, res.Log)
		if trace != "" {
			rec = capture.NewRecorder(trace, capture.RecorderOptions{Gzip: trace == r.fixture})
			o.err = rec.Attach(res.Net)
		}
		if r.before != nil {
			r.before(res)
		}
	}})
	if rec != nil {
		err = errors.Join(err, rec.Close())
	}
	if o.logs == nil && res != nil {
		o.logs = []*detector.Log{res.Log}
	}
	o.err = errors.Join(o.err, err)
	return o
}

// replay attaches spec's protocol (and χ, when the row deploys it) to the
// trace recorded in dir and runs it to the recorded horizon.
func (r *diffRow) replay(spec *protocol.Spec, tel *telemetry.Set, dir string) outcome {
	env, err := capture.OpenTrace(dir, capture.TraceOptions{Telemetry: tel})
	if err != nil {
		return outcome{err: err}
	}
	var o outcome
	hooks, log := protocol.LogHooks()
	d, err := protocol.Lookup(spec.Protocol)
	var opts any
	if err == nil && len(spec.Options) > 0 {
		opts, err = d.ParseOptions(spec.Options)
	}
	if err == nil {
		_, err = protocol.Attach(env, spec.Protocol, opts, hooks)
	}
	if err == nil {
		o = r.observe(env, log)
		env.Run(0)
		err = env.Err()
	}
	o.err = errors.Join(err, env.Close())
	return o
}

// observe is what a run on env will report: the scenario's log, then χ's
// when the row deploys χ beside it.
func (r *diffRow) observe(env protocol.Env, log *detector.Log) outcome {
	o := outcome{logs: []*detector.Log{log}}
	if r.chi {
		o.logs = append(o.logs, detector.NewLog())
		chi.Attach(env, chi.Options{Round: time.Second, Timeout: 250 * time.Millisecond, FabricationTolerance: 2,
			Calibration: chi.Calibration{Sigma: 1000}, Sink: detector.LogSink(o.logs[1])})
	}
	return o
}

// agree fails t if two transcripts differ, naming both and the first line
// at which they part.
func agree(t *testing.T, wantName, want, gotName, got string) {
	t.Helper()
	if want == got {
		return
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	i := 0
	for i < len(w)-1 && i < len(g)-1 && w[i] == g[i] {
		i++
	}
	t.Errorf("%s renders differently from %s; first diverging line %d:\n  %s: %q\n  %s: %q",
		gotName, wantName, i+1, wantName, w[i], gotName, g[i])
}

// fatihSpec is the fatih descriptor's default spec, the scenario `mrsim
// -protocol fatih` runs.
func fatihSpec(t *testing.T) *protocol.Spec {
	d, err := protocol.Lookup("fatih")
	if err != nil {
		t.Fatal(err)
	}
	return d.DefaultSpec(1, false)
}

func loadSpec(t *testing.T, path string) *protocol.Spec {
	data, err := os.ReadFile(path)
	spec, decodeErr := protocol.DecodeSpec(data)
	if err = errors.Join(err, decodeErr); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return spec
}
