package protocol

import (
	"fmt"
	"time"

	"routerwatch/internal/attack"
	"routerwatch/internal/detector"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/routing"
	"routerwatch/internal/sim"
	"routerwatch/internal/telemetry"
	"routerwatch/internal/topology"
)

// RunOptions carries the per-run wiring a Spec cannot express as data.
type RunOptions struct {
	// Telemetry instruments the network and the protocol (nil = disabled).
	Telemetry *telemetry.Set
	// Progress, when non-nil, receives human-readable narration from
	// scenario descriptors (χ's learning-phase announcements).
	Progress func(format string, args ...any)
	// BeforeRun is called after the scenario is fully assembled — protocol
	// attached, attack installed, traffic scheduled — and before the
	// simulation runs. Callers use it to add measurement probes (delivery
	// counters, local handlers) without re-opening the assembly sequence.
	BeforeRun func(*Result)
}

// Result is a completed (or, inside BeforeRun, fully assembled) scenario.
type Result struct {
	Spec *Spec
	// Env is the environment the protocol attached to; Net is its backing
	// simulated network.
	Env *SimEnv
	Net *network.Network
	// Routing is the link-state fabric, when the spec asked for one.
	Routing *routing.Protocol
	// Engine is the attached protocol's native value (*pik2.Protocol,
	// *chi.Protocol, *fatih.System, …), as Descriptor.Attach returned it.
	Engine any
	// Log is the run's suspicion log.
	Log *detector.Log
	// Faulty is the (first) compromised router, -1 when the spec had no
	// attack; FaultySet lists every compromised router in installation
	// order (colluding scenarios have more than one).
	Faulty    packet.NodeID
	FaultySet []packet.NodeID
	// Installed are the attack behaviours actually deployed, in
	// installation order, for ground-truth inspection (victim counts).
	Installed []InstalledAttack
	// Extra carries protocol-specific scenario results (χ calibration,
	// Fatih's *ScenarioResult).
	Extra any
}

// InstalledAttack records one deployed attack behaviour.
type InstalledAttack struct {
	Node packet.NodeID
	Kind string
	// Behavior is the live behaviour; assert attack.Victims on it for
	// ground-truth victim counts.
	Behavior network.Behavior
}

// Victims sums the victim counts of every installed attack behaviour —
// zero means the scenario's attacks never actually fired (an inert
// configuration, not a survived one).
func (r *Result) Victims() int {
	total := 0
	for _, ia := range r.Installed {
		if v, ok := ia.Behavior.(attack.Victims); ok {
			total += v.VictimCount()
		}
	}
	return total
}

// FaultyContains reports whether seg implicates any compromised router.
func (r *Result) FaultyContains(seg topology.Segment) bool {
	for _, f := range r.FaultySet {
		if seg.Contains(f) {
			return true
		}
	}
	return false
}

// Run executes a declarative scenario. Protocols with a canonical custom
// scenario (χ's learning pass, Fatih's Abilene composition) dispatch to
// their descriptor's Scenario; everything else runs through RunGeneric. A
// canonical scenario fixes its own deployment, workload and fabric, so a
// spec that sets the fields it would ignore is rejected, not run as if they
// were absent.
func Run(spec *Spec, run RunOptions) (*Result, error) {
	d, err := Lookup(spec.Protocol)
	if err != nil {
		return nil, err
	}
	if d.Scenario != nil {
		if len(spec.Options) > 0 || len(spec.Traffic) > 0 || spec.Routing != nil || len(spec.Attacks) > 0 {
			return nil, fmt.Errorf("scenario: protocol %q runs its canonical scenario and takes no options, traffic, routing or attacks list", spec.Protocol)
		}
		return d.Scenario(spec, run)
	}
	return RunGeneric(spec, run)
}

// RunGeneric runs a scenario through the shared assembly sequence, with
// the protocol attached between routing convergence and attack install.
func RunGeneric(spec *Spec, run RunOptions) (*Result, error) {
	d, err := Lookup(spec.Protocol)
	if err != nil {
		return nil, err
	}
	if d.Attach == nil {
		return nil, fmt.Errorf("protocol %q only runs as a full scenario", spec.Protocol)
	}

	res, base, err := assemble(spec, run.Telemetry, func(res *Result) error {
		return attachProtocol(d, res)
	})
	if err != nil {
		return nil, err
	}
	if run.BeforeRun != nil {
		run.BeforeRun(res)
	}
	res.Net.Run(base + spec.Duration.D())
	return res, nil
}

// attachProtocol is RunGeneric's attach step: wire the suspicion log (and,
// when the spec asks, the routing response after it), parse the spec's
// options and deploy d on the assembled environment.
func attachProtocol(d Descriptor, res *Result) error {
	spec := res.Spec
	hooks, log := LogHooks()
	res.Log = log
	if spec.Routing != nil && spec.Routing.Respond {
		hooks.Sink = detector.Tee(hooks.Sink, res.Routing.Respond)
	}

	var opts any
	var err error
	if len(spec.Options) > 0 {
		if d.ParseOptions == nil {
			return fmt.Errorf("protocol %q takes no options", spec.Protocol)
		}
		if opts, err = d.ParseOptions(spec.Options); err != nil {
			return fmt.Errorf("protocol %q: %v", spec.Protocol, err)
		}
	}
	if res.Engine, err = d.Attach(res.Env, opts, hooks); err != nil {
		return fmt.Errorf("protocol %q: %v", spec.Protocol, err)
	}
	return nil
}

// assemble is the one scenario sequence: topology, network, routing
// convergence, the caller's attach step (nil for none), attack install,
// traffic schedule. The order is fixed because event-insertion order at
// equal virtual times is part of the determinism contract. It returns the
// assembled scenario and the traffic base (the post-convergence time the
// spec's offsets and duration are relative to).
func assemble(spec *Spec, tel *telemetry.Set, attach func(*Result) error) (*Result, time.Duration, error) {
	g, err := spec.Topology.Build()
	if err != nil {
		return nil, 0, fmt.Errorf("scenario: topology: %w", err)
	}
	if err := spec.validate(g.NumNodes()); err != nil {
		return nil, 0, err
	}
	net := network.New(g, network.Options{
		Seed:             spec.Seed,
		ProcessingJitter: spec.Jitter.D(),
		Telemetry:        tel,
	})
	res := &Result{Spec: spec, Env: NewSimEnv(net), Net: net, Faulty: -1}

	if r := spec.Routing; r != nil {
		res.Routing = routing.Attach(net, res.Env.Flood(), routing.Timers{Delay: r.Delay.D(), Hold: r.Hold.D()})
		if c := r.Converge.D(); c > 0 {
			res.Routing.RunUntilConverged(c)
		}
	}
	if attach != nil {
		if err := attach(res); err != nil {
			return nil, 0, err
		}
	}
	if err := installAttack(net, spec, res); err != nil {
		return nil, 0, err
	}
	base := net.Now()
	if err := scheduleTraffic(net, spec, base); err != nil {
		return nil, 0, err
	}
	return res, base, nil
}

// installAttack compromises the spec's routers (Attack plus the colluding
// Attacks list). Each attacker's RNG is private (never shared with the
// network's streams) so adding or removing an attack cannot shift
// unrelated random draws; attacks after the first default to seeds derived
// from the scenario seed by position, so colluders never share a stream
// either. Several behaviours on one router chain through attack.Compose.
func installAttack(net *network.Network, spec *Spec, res *Result) error {
	list := spec.AttackList()
	perNode := make(map[packet.NodeID][]network.Behavior)
	for i, a := range list {
		node := packet.NodeID(a.Node)
		seed := a.Seed
		if seed == 0 {
			seed = spec.Seed
			if i > 0 {
				seed = sim.DeriveSeed(spec.Seed, uint64(i))
			}
		}
		b, install, err := buildAttack(net, a, node, seed)
		if err != nil {
			return err
		}
		if install {
			perNode[node] = append(perNode[node], b)
		}
		res.Installed = append(res.Installed, InstalledAttack{Node: node, Kind: a.Kind, Behavior: b})
		seen := false
		for _, f := range res.FaultySet {
			if f == node {
				seen = true
			}
		}
		if !seen {
			res.FaultySet = append(res.FaultySet, node)
		}
	}
	for _, a := range list {
		node := packet.NodeID(a.Node)
		switch bs := perNode[node]; len(bs) {
		case 0: // fabricate-only node: the injection loop is the attack
		case 1:
			net.Router(node).SetBehavior(bs[0])
		default:
			net.Router(node).SetBehavior(&attack.Compose{Behaviors: bs})
		}
		delete(perNode, node)
	}
	if len(res.FaultySet) > 0 {
		res.Faulty = res.FaultySet[0]
	}
	return nil
}

// buildAttack constructs one attack behaviour. install reports whether the
// behaviour filters forwarded traffic and belongs in Router.SetBehavior —
// fabricators instead schedule their own injection loop, exactly as the
// single-attack runtime always installed them.
func buildAttack(net *network.Network, a *AttackSpec, node packet.NodeID, seed int64) (network.Behavior, bool, error) {
	sel, err := attackSelector(a.Select, a.Flows)
	if err != nil {
		return nil, false, err
	}
	switch a.Kind {
	case "drop":
		return &attack.Dropper{
			Select: sel, P: a.Rate, Rng: attack.NewRand(seed),
			Start: a.Start.D(), Stop: a.Stop.D(),
			Period: a.Period.D(), Duty: a.Duty,
			MinQueueFrac: a.MinQueueFrac, MinREDAvg: a.MinREDAvg,
		}, true, nil
	case "delay":
		return &attack.Delayer{
			Select: sel, Delay: a.Delay.D(), Jitter: a.Jitter.D(),
			Start: a.Start.D(), Stop: a.Stop.D(), Rng: attack.NewRand(seed),
		}, true, nil
	case "modify":
		return &attack.Modifier{Select: sel, Start: a.Start.D(), Stop: a.Stop.D()}, true, nil
	case "reorder":
		return &attack.Delayer{
			Select: sel, Jitter: a.Jitter.D(), Rng: attack.NewRand(seed),
		}, true, nil
	case "fabricate":
		size, every := a.Size, a.Every.D()
		if size == 0 {
			size = 700
		}
		if every == 0 {
			every = 20 * time.Millisecond
		}
		f := attack.NewFabricator(net, node, packet.NodeID(a.Src), packet.NodeID(a.Dst), size, every)
		return f, false, nil
	default:
		return nil, false, fmt.Errorf("unknown attack kind %q", a.Kind)
	}
}

func attackSelector(name string, flows []packet.FlowID) (attack.Selector, error) {
	switch name {
	case "", "all":
		return attack.All, nil
	case "data":
		return attack.DataOnly, nil
	case "syn":
		return attack.SYNOnly, nil
	case "flow":
		if len(flows) == 0 {
			return nil, fmt.Errorf("attack selector %q needs a flows list", name)
		}
		return attack.ByFlow(flows...), nil
	default:
		return nil, fmt.Errorf("unknown attack selector %q", name)
	}
}

// scheduleTraffic inserts the spec's workloads. A "pair" injects the
// forward and reverse packets from one scheduled closure — the event count
// and order then match the historical bidirectional harnesses exactly.
func scheduleTraffic(net *network.Network, spec *Spec, base time.Duration) error {
	sched := net.Scheduler()
	for ti := range spec.Traffic {
		t := &spec.Traffic[ti]
		size := t.Size
		if size == 0 {
			size = 500
		}
		src, dst := packet.NodeID(t.Src), packet.NodeID(t.Dst)
		switch t.Kind {
		case "", "stream":
			for i := 0; i < t.Count; i++ {
				i := i
				sched.At(base+time.Duration(i)*t.Interval.D()+t.Offset.D(), func() {
					p := net.NewPacket()
					p.Dst, p.Size, p.Flow = dst, size, t.Flow
					p.Seq, p.Payload = uint32(i), uint64(i)
					net.Inject(src, p)
				})
			}
		case "pair":
			for i := 0; i < t.Count; i++ {
				i := i
				sched.At(base+time.Duration(i)*t.Interval.D()+t.Offset.D(), func() {
					p := net.NewPacket()
					p.Dst, p.Size, p.Flow = dst, size, t.Flow
					p.Seq, p.Payload = uint32(i), uint64(i)
					net.Inject(src, p)
					q := net.NewPacket()
					q.Dst, q.Size, q.Flow = src, size, t.ReverseFlow
					q.Seq, q.Payload = uint32(i), uint64(i)
					net.Inject(dst, q)
				})
			}
		case "mesh":
			scheduleMesh(net, spec, t, ti, base, size)
		default:
			return fmt.Errorf("unknown traffic kind %q", t.Kind)
		}
	}
	return nil
}

// scheduleMesh installs a "mesh" workload: Pairs random src→dst flows drawn
// from a stream derived from the scenario seed and the workload's position
// (never from the network's streams, so a mesh cannot shift unrelated
// draws). Each flow is one self-rechaining event — a 1000-pair ×
// 1000-packet mesh keeps only 1000 events pending instead of a million.
func scheduleMesh(net *network.Network, spec *Spec, t *TrafficSpec, ti int, base time.Duration, size int) {
	sched := net.Scheduler()
	pairs := t.Pairs
	if pairs == 0 {
		pairs = 100
	}
	n := net.Graph().NumNodes()
	rng := sim.NewRNG(sim.DeriveSeed(spec.Seed, 0x6d657368<<8|uint64(ti)))
	interval := t.Interval.D()
	for k := 0; k < pairs; k++ {
		src := packet.NodeID(rng.Intn(n))
		dst := packet.NodeID(rng.Intn(n - 1))
		if dst >= src {
			dst++
		}
		flow := t.Flow + packet.FlowID(k)
		// Smear flow starts across one interval so pairs don't all fire on
		// the same instant.
		start := base + t.Offset.D() + interval*time.Duration(k)/time.Duration(pairs)
		i := 0
		var tick func()
		tick = func() {
			p := net.NewPacket()
			p.Dst, p.Size, p.Flow = dst, size, flow
			p.Seq, p.Payload = uint32(i), uint64(i)
			net.Inject(src, p)
			i++
			if i < t.Count {
				sched.At(sched.Now()+interval, tick)
			}
		}
		sched.At(start, tick)
	}
}
