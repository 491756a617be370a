package fatih

import (
	"math/rand"
	"sort"
	"time"

	"routerwatch/internal/attack"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/telemetry"
	"routerwatch/internal/topology"
)

// ScenarioOptions parameterizes the Fig 5.7 Abilene experiment.
type ScenarioOptions struct {
	// Seed drives the simulation.
	Seed int64
	// AttackAt is when the Kansas City router is compromised (paper:
	// ≈117 s).
	AttackAt time.Duration
	// AttackRate is the fraction of transit traffic dropped (paper: 20%).
	AttackRate float64
	// Duration is the total simulated time (paper's plot: 200 s).
	Duration time.Duration
	// Telemetry, when non-nil, instruments the run: simulator metrics,
	// detector metrics, and the scenario's timeline events (attack onset,
	// routing convergence) on the trace.
	Telemetry *telemetry.Set
}

const (
	// trafficStart is when background traffic and the RTT probe begin
	// (after routing convergence; the paper's run converged by ≈55 s).
	trafficStart = 60 * time.Second
	// pingInterval is the RTT probe period.
	pingInterval = 500 * time.Millisecond
)

func (o *ScenarioOptions) fill() {
	if o.AttackAt == 0 {
		o.AttackAt = 117 * time.Second
	}
	if o.AttackRate == 0 {
		o.AttackRate = 0.2
	}
	if o.Duration == 0 {
		o.Duration = 240 * time.Second
	}
}

// RTTSample is one New York↔Sunnyvale round-trip measurement.
type RTTSample struct {
	At  time.Duration
	Seq uint32
	RTT time.Duration
}

// ScenarioResult is the Fig 5.7 data.
type ScenarioResult struct {
	ConvergedAt      time.Duration
	AttackAt         time.Duration
	FirstDetectionAt time.Duration
	// DetectionsBy lists the routers that raised their own (non-adopted)
	// suspicions, with times.
	DetectionsBy map[packet.NodeID]time.Duration
	// RerouteAt is the first post-detection routing recomputation.
	RerouteAt time.Duration
	RTT       []RTTSample
	// PreAttackRTT and PostRerouteRTT are medians over the respective
	// windows (paper: ≈50 ms → ≈56 ms).
	PreAttackRTT, PostRerouteRTT time.Duration
	// KCTransitTail counts data packets transiting Kansas City in the
	// final fifth of the run (should be ≈0 after isolation).
	KCTransitTail int
	// LostPings counts probe round trips that never completed.
	LostPings int

	System *System
}

// Probe flow IDs.
const (
	pingFlow  packet.FlowID = 0x9001
	pongFlow  packet.FlowID = 0x9002
	cbrFlowLo packet.FlowID = 0x100
)

// RunAbilene executes the Fig 5.7 scenario and returns its timeline.
func RunAbilene(opts ScenarioOptions) *ScenarioResult {
	opts.fill()
	g := topology.Abilene()
	net := network.New(g, network.Options{
		Seed:             opts.Seed,
		ProcessingJitter: 200 * time.Microsecond,
		Telemetry:        opts.Telemetry,
	})
	sys := Deploy(net)

	// scenarioTID is the trace row for whole-run milestones (attack onset,
	// routing convergence) that belong to no single router.
	const scenarioTID = int32(-1)
	tr := opts.Telemetry.Tracer()
	if tr != nil {
		tr.SetThreadName(scenarioTID, "scenario")
	}

	res := &ScenarioResult{
		AttackAt:     opts.AttackAt,
		DetectionsBy: make(map[packet.NodeID]time.Duration),
		System:       sys,
	}

	lookup := func(name string) packet.NodeID {
		id, ok := g.Lookup(name)
		if !ok {
			panic("fatih: unknown Abilene node " + name)
		}
		return id
	}
	sunny, ny := lookup("Sunnyvale"), lookup("NewYork")
	kc := lookup("KansasCity")

	// Record routing convergence.
	sched := net.Scheduler()
	var convergeProbe func()
	convergeProbe = func() {
		if sys.Converged() && res.ConvergedAt == 0 {
			res.ConvergedAt = net.Now()
			if tr != nil {
				tr.Instant("routing-converged", "scenario", net.Now(), scenarioTID, "")
			}
			return
		}
		sched.After(time.Second, convergeProbe)
	}
	sched.After(time.Second, convergeProbe)

	// RTT probe: Sunnyvale pings New York; New York echoes.
	sentAt := make(map[uint32]time.Duration)
	var seq uint32
	net.Router(ny).SetLocalHandler(func(p *packet.Packet) {
		if p.Flow != pingFlow {
			return
		}
		net.Inject(ny, &packet.Packet{Dst: sunny, Flow: pongFlow, Seq: p.Seq, Size: 100})
	})
	net.Router(sunny).SetLocalHandler(func(p *packet.Packet) {
		if p.Flow != pongFlow {
			return
		}
		sent, ok := sentAt[p.Seq]
		if !ok {
			return
		}
		delete(sentAt, p.Seq)
		res.RTT = append(res.RTT, RTTSample{At: net.Now(), Seq: p.Seq, RTT: net.Now() - sent})
	})
	sched.At(trafficStart, func() {
		sched.NewTicker(pingInterval, func() {
			seq++
			sentAt[seq] = net.Now()
			net.Inject(sunny, &packet.Packet{Dst: ny, Flow: pingFlow, Seq: seq, Size: 100})
		})
	})

	// Background traffic: low-rate CBR between coast pairs, exercising the
	// transcontinental segments through Kansas City.
	pairs := [][2]string{
		{"Seattle", "Atlanta"},
		{"LosAngeles", "Chicago"},
		{"Sunnyvale", "Washington"},
		{"Denver", "NewYork"},
	}
	for i, pair := range pairs {
		src, dst := lookup(pair[0]), lookup(pair[1])
		flow := cbrFlowLo + packet.FlowID(i)
		var n uint32
		sched.At(trafficStart+time.Duration(i)*time.Millisecond, func() {
			sched.NewTicker(10*time.Millisecond, func() {
				n++
				net.Inject(src, &packet.Packet{Dst: dst, Flow: flow, Seq: n, Size: 500, Payload: uint64(n)})
				net.Inject(dst, &packet.Packet{Dst: src, Flow: flow + 0x10, Seq: n, Size: 500, Payload: uint64(n)})
			})
		})
	}

	// Detection bookkeeping: record each router's first suspicion.
	prevLen := 0
	sched.NewTicker(250*time.Millisecond, func() {
		all := sys.Log.All()
		for _, s := range all[prevLen:] {
			if res.FirstDetectionAt == 0 {
				res.FirstDetectionAt = s.At
			}
			if _, ok := res.DetectionsBy[s.By]; !ok {
				res.DetectionsBy[s.By] = s.At
			}
		}
		prevLen = len(all)
		if res.FirstDetectionAt > 0 && res.RerouteAt == 0 {
			for _, re := range sys.Reroutes {
				if re.At > res.FirstDetectionAt {
					res.RerouteAt = re.At
					break
				}
			}
		}
	})

	// KC transit accounting for the final eighth of the run: full
	// isolation of a uniformly malicious router takes several
	// detect→exclude→reroute cycles, each gated by the OSPF hold timer.
	tailStart := opts.Duration * 7 / 8
	net.Router(kc).AddTap(func(ev network.Event) {
		if ev.Kind == network.EvReceive && ev.Time >= tailStart {
			res.KCTransitTail++
		}
	})

	// The compromise: Kansas City drops AttackRate of its transit traffic
	// (the paper: "20% of its transit traffic is dropped or altered").
	sched.At(opts.AttackAt, func() {
		if tr != nil {
			tr.Instant("attack-onset", "scenario", net.Now(), scenarioTID, "KansasCity drops transit traffic")
			tr.Instant("compromised", "scenario", net.Now(), int32(kc), "dropper")
		}
		net.Router(kc).SetBehavior(&attack.Dropper{
			Select: attack.All,
			P:      opts.AttackRate,
			Rng:    rand.New(rand.NewSource(opts.Seed + 17)),
		})
	})

	net.Run(opts.Duration)

	res.LostPings = len(sentAt)
	res.PreAttackRTT = medianRTT(res.RTT, trafficStart, opts.AttackAt)
	if res.RerouteAt > 0 {
		res.PostRerouteRTT = medianRTT(res.RTT, res.RerouteAt+2*time.Second, opts.Duration)
	}
	return res
}

// medianRTT computes the median RTT of samples within [from, to).
func medianRTT(samples []RTTSample, from, to time.Duration) time.Duration {
	var vals []time.Duration
	for _, s := range samples {
		if s.At >= from && s.At < to {
			vals = append(vals, s.RTT)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals[len(vals)/2]
}
