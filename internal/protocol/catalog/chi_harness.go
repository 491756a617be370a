package catalog

import (
	"time"

	"routerwatch/internal/attack"
	"routerwatch/internal/detector"
	"routerwatch/internal/detector/chi"
	"routerwatch/internal/network"
	"routerwatch/internal/protocol"
	"routerwatch/internal/queue"
	"routerwatch/internal/tcpsim"
	"routerwatch/internal/telemetry"
	"routerwatch/internal/topology"
)

// ChiHarness drives Protocol χ end to end on the Fig 6.4 topology: a
// learning pass estimates the queue-prediction-error distribution (§6.2.1),
// then the calibrated detector watches TCP traffic through the validated
// queue Q(R→RD) while R's compromise starts at AttackAt. It is the only
// such driver — the registry's χ scenario, the Chapter 6 figures and the
// §6.4.3 comparison all run through it. The construction order inside
// Assemble and Run is fixed, because event-insertion order at equal virtual
// times is part of the determinism contract.
type ChiHarness struct {
	// Seed drives the learning pass; detection runs on Seed+1 (and RED's
	// second learning pass on Seed+100000).
	Seed int64
	// Topology is the Fig 6.4 instance; nil means topology.SimpleChi(3, 2).
	Topology *topology.SimpleChiTopology
	// Jitter is the routers' processing jitter; 0 means 2 ms, or under RED
	// 200 µs — the paper's RED experiments are NS simulations with
	// near-exact timing (§6.5.3; see internal/detector/chi's tests).
	Jitter time.Duration
	// Flows is the TCP workload size: flow i runs from source i to sink i
	// (modulo the topology's counts), starting at i × 200 ms. 0 means one
	// flow per source.
	Flows int
	// RED switches the bottleneck to the §6.5.3 RED configuration.
	RED bool
	// Background, when set, is the detection network's workload in place
	// of the TCP flows (the learning passes keep them).
	Background func(man *tcpsim.Manager, st *topology.SimpleChiTopology)
	// AttackAt is when the compromised router's behaviour starts.
	AttackAt time.Duration
	// Attack builds the behaviour given the started flows (nil = none).
	Attack func(flows []*tcpsim.Flow) *attack.Dropper
	// ExtraTraffic runs after the behaviour is installed, e.g. the
	// SYN-attack victim flow; start is AttackAt + 500 ms.
	ExtraTraffic func(man *tcpsim.Manager, st *topology.SimpleChiTopology, start time.Duration) *tcpsim.Flow
	// Duration is the detection run's horizon. Default 45 s.
	Duration time.Duration

	// Sink and Observer are the detection deployment's chi.Options fields
	// of the same names.
	Sink     detector.Sink
	Observer func(chi.RoundReport)
	// Telemetry instruments the detection network. The learning passes are
	// calibration machinery, not the scenario under observation: they run
	// uninstrumented.
	Telemetry *telemetry.Set
	// Progress, when non-nil, receives the learning-phase narration.
	Progress func(format string, args ...any)
	// BeforeRun is called once the detection network is fully assembled —
	// clock at AttackAt, behaviour installed, extra traffic started — and
	// before it runs to the horizon.
	BeforeRun func(*ChiRun)
}

// ChiNet is one assembled Fig 6.4 network with its TCP workload.
type ChiNet struct {
	Topology *topology.SimpleChiTopology
	Net      *network.Network
	Env      *protocol.SimEnv
	Manager  *tcpsim.Manager
	Flows    []*tcpsim.Flow
}

// ChiRun is a harness run: the detection network plus what the learning
// pass and the attack produced.
type ChiRun struct {
	*ChiNet
	Calibration chi.Calibration
	Protocol    *chi.Protocol
	// Attacker is the installed behaviour (nil without Attack); Victim is
	// ExtraTraffic's flow.
	Attacker *attack.Dropper
	Victim   *tcpsim.Flow
}

// chiREDConfig is the §6.5.3 RED configuration (see internal/detector/chi's
// red tests for the tuning rationale).
func chiREDConfig() *queue.REDConfig {
	return &queue.REDConfig{
		Limit: 90_000, MinTh: 15_000, MaxTh: 60_000,
		MaxP: 0.012, Weight: 0.002, MeanPacketSize: 1000,
	}
}

func (h *ChiHarness) fill() {
	if h.Topology == nil {
		h.Topology = topology.SimpleChi(3, 2)
	}
	if h.Jitter == 0 {
		h.Jitter = 2 * time.Millisecond
		if h.RED {
			h.Jitter = 200 * time.Microsecond
		}
	}
	if h.Flows == 0 {
		h.Flows = len(h.Topology.Sources)
	}
	if h.Duration == 0 {
		h.Duration = 45 * time.Second
	}
}

// queue is the validated queue Q(R→RD).
func (h ChiHarness) queue() chi.QueueID {
	return chi.QueueID{R: h.Topology.R, RD: h.Topology.RD}
}

// Assemble builds one uninstrumented network of the harness on seed, in
// the fixed order: network, attach (whatever watches the bottleneck
// deploys before any traffic source exists), TCP manager, flows.
func (h ChiHarness) Assemble(seed int64, attach func(*ChiNet)) *ChiNet {
	h.fill()
	return h.assemble(seed, nil, nil, attach)
}

// assemble is Assemble on a filled harness; a non-nil workload replaces
// the TCP flows.
func (h ChiHarness) assemble(seed int64, tel *telemetry.Set, workload func(*tcpsim.Manager, *topology.SimpleChiTopology), attach func(*ChiNet)) *ChiNet {
	st := h.Topology
	opts := network.Options{Seed: seed, ProcessingJitter: h.Jitter, Telemetry: tel}
	if h.RED {
		opts.QueueFactory = network.REDFactory(*chiREDConfig())
	}
	n := &ChiNet{Topology: st, Net: network.New(st.Graph, opts)}
	n.Env = protocol.NewSimEnv(n.Net)
	attach(n)
	n.Manager = tcpsim.NewManager(n.Net)
	if workload != nil {
		workload(n.Manager, st)
		return n
	}
	n.Flows = make([]*tcpsim.Flow, 0, h.Flows)
	for i := 0; i < h.Flows; i++ {
		n.Flows = append(n.Flows, n.Manager.StartFlow(tcpsim.FlowConfig{
			Src:   st.Sources[i%len(st.Sources)],
			Dst:   st.Sinks[i%len(st.Sinks)],
			Start: time.Duration(i) * 200 * time.Millisecond,
		}))
	}
	return n
}

// attachChi deploys χ on n's Q(R→RD) under the harness's queue discipline.
func (h ChiHarness) attachChi(n *ChiNet, opts chi.Options) *chi.Protocol {
	opts.Queues = []chi.QueueID{h.queue()}
	if h.RED {
		opts.RED = chiREDConfig()
	}
	return chi.Attach(n.Env, opts)
}

// Learn assembles a learning network on seed — χ in learning mode on
// Q(R→RD), carrying base, under the TCP flows — and returns it, not yet
// run, with the queue's validator.
func (h ChiHarness) Learn(seed int64, base chi.Calibration) (*ChiNet, *chi.Validator) {
	h.fill()
	var p *chi.Protocol
	n := h.assemble(seed, nil, nil, func(n *ChiNet) {
		p = h.attachChi(n, chi.Options{Learning: true, Round: time.Second, Calibration: base})
	})
	return n, p.Validator(h.queue())
}

// calibrate runs the 60 s learning period (§6.2.1). RED takes two passes:
// the second learns the excess-drop null under the first's qerror fit.
func (h ChiHarness) calibrate() chi.Calibration {
	pass := func(seed int64, base chi.Calibration) chi.Calibration {
		n, v := h.Learn(seed, base)
		n.Net.Run(60 * time.Second)
		return v.Calibrate()
	}
	cal := pass(h.Seed, chi.Calibration{})
	if h.RED {
		cal = pass(h.Seed+100000, chi.Calibration{Mu: cal.Mu, Sigma: cal.Sigma})
	}
	return cal
}

// Run executes the experiment: learn, calibrate, then detect.
func (h ChiHarness) Run() *ChiRun {
	h.fill()
	progress := h.Progress
	if progress == nil {
		progress = func(string, ...any) {}
	}
	progress("learning period (60 s simulated)...\n")
	run := &ChiRun{Calibration: h.calibrate()}
	progress("calibrated: mu=%.0f sigma=%.0f\n", run.Calibration.Mu, run.Calibration.Sigma)

	run.ChiNet = h.assemble(h.Seed+1, h.Telemetry, h.Background, func(n *ChiNet) {
		run.Protocol = h.attachChi(n, chi.Options{
			Round:       time.Second,
			Calibration: run.Calibration,
			// Calibrated target significance values (see EXPERIMENTS.md).
			SingleThreshold:      0.999,
			CombinedThreshold:    0.99,
			REDThreshold:         0.97,
			FabricationTolerance: 2,
			Sink:                 h.Sink,
			Observer:             h.Observer,
		})
	})
	st := h.Topology
	if h.AttackAt > 0 {
		run.Net.Run(h.AttackAt)
	}
	if h.Attack != nil {
		run.Attacker = h.Attack(run.Flows)
		run.Attacker.Start = h.AttackAt
		run.Net.Router(st.R).SetBehavior(run.Attacker)
	}
	if h.ExtraTraffic != nil {
		run.Victim = h.ExtraTraffic(run.Manager, st, h.AttackAt+500*time.Millisecond)
	}
	if h.BeforeRun != nil {
		h.BeforeRun(run)
	}
	run.Net.Run(h.Duration)
	return run
}
