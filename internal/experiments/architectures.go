package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"routerwatch/internal/attack"
	"routerwatch/internal/baseline"
	"routerwatch/internal/detector"
	"routerwatch/internal/detector/chi"
	"routerwatch/internal/detector/pi2"
	"routerwatch/internal/detector/pik2"
	"routerwatch/internal/detector/replica"
	"routerwatch/internal/detector/tvinfo"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/protocol/catalog"
	"routerwatch/internal/topology"
)

// ArchitectureRow is one traffic-validation architecture's outcome on the
// shared scenario.
type ArchitectureRow struct {
	Architecture string
	Protocol     string
	Detected     bool
	Accurate     bool
	Precision    int
	DetectionAt  time.Duration
}

// ArchitecturesResult is the Fig 2.1–2.5 design-space comparison: every
// validation architecture run against the same 20% drop attack by the same
// compromised router.
type ArchitecturesResult struct {
	Rows []ArchitectureRow
}

// RunArchitectures executes the comparison. The scenario: a 5-router line
// (0–4) with a bypass 0–x–4 for path diversity, CBR traffic end to end,
// and router 2 dropping 20% of transit traffic from t = 2 s.
func RunArchitectures(seed int64) *ArchitecturesResult {
	res := &ArchitecturesResult{}
	const (
		attackStart = 2 * time.Second
		duration    = 8 * time.Second
	)
	faulty := packet.NodeID(2)

	buildNet := func(seed int64) *network.Network {
		g := topology.Line(5)
		x := g.AddNode("x")
		bypass := topology.DefaultLinkAttrs()
		bypass.Cost = 100
		g.AddDuplex(0, x, bypass)
		g.AddDuplex(x, 4, bypass)
		return network.New(g, network.Options{Seed: seed, ProcessingJitter: 100 * time.Microsecond})
	}
	drive := func(net *network.Network) {
		net.Router(faulty).SetBehavior(&attack.Dropper{
			Select: attack.All, P: 0.2, Rng: rand.New(rand.NewSource(seed)), Start: attackStart,
		})
		for i := 0; i < int(duration.Milliseconds()); i++ {
			i := i
			net.Scheduler().At(time.Duration(i)*time.Millisecond+time.Microsecond, func() {
				net.Inject(0, &packet.Packet{Dst: 4, Size: 500, Flow: 1, Seq: uint32(i), Payload: uint64(i)})
				net.Inject(4, &packet.Packet{Dst: 0, Size: 500, Flow: 2, Seq: uint32(i), Payload: uint64(i)})
			})
		}
		net.Run(duration)
	}
	judge := func(arch, proto string, log *detector.Log) {
		gt := detector.NewGroundTruth([]packet.NodeID{faulty}, nil)
		row := ArchitectureRow{
			Architecture: arch,
			Protocol:     proto,
			Detected:     log.Len() > 0,
			Accurate:     len(detector.CheckAccuracy(log, gt, 16)) == 0,
			Precision:    detector.Precision(log),
			DetectionAt:  log.FirstAt(),
		}
		res.Rows = append(res.Rows, row)
	}

	// Every architecture deploys through the protocol registry — the point
	// of the comparison is that they are all instances of one framework.
	// Centralized replica (Fig 2.1): the ideal reference.
	{
		net := buildNet(seed)
		hooks, log := protocol.LogHooks()
		protocol.MustAttach(protocol.NewSimEnv(net), "replica", catalog.ReplicaConfig{
			Observed: faulty,
			Options:  replica.Options{Round: 500 * time.Millisecond, Tolerance: 3},
		}, hooks)
		drive(net)
		judge("centralized replica (Fig 2.1)", "active replication", log)
	}
	// Per router (Fig 2.2/3.2): WATCHERS.
	{
		net := buildNet(seed + 1)
		hooks, log := protocol.LogHooks()
		protocol.MustAttach(protocol.NewSimEnv(net), "watchers", baseline.WatchersOptions{
			Round: 500 * time.Millisecond, Threshold: 5000, Fixed: true,
		}, hooks)
		drive(net)
		judge("per router (Fig 2.2)", "WATCHERS (fixed)", log)
	}
	// Per interface (Fig 2.3): Protocol χ on Q(2→3).
	{
		// Learning pass.
		lnet := buildNet(seed + 100)
		learner := chi.Attach(protocol.NewSimEnv(lnet), chi.Options{
			Learning: true, Round: 500 * time.Millisecond,
			Queues: []chi.QueueID{{R: faulty, RD: 3}},
		})
		for i := 0; i < 4000; i++ {
			i := i
			lnet.Scheduler().At(time.Duration(i)*time.Millisecond+time.Microsecond, func() {
				lnet.Inject(0, &packet.Packet{Dst: 4, Size: 500, Flow: 1, Seq: uint32(i), Payload: uint64(i)})
			})
		}
		lnet.Run(4 * time.Second)
		cal := learner.Validator(chi.QueueID{R: faulty, RD: 3}).Calibrate()

		net := buildNet(seed + 2)
		hooks, log := protocol.LogHooks()
		protocol.MustAttach(protocol.NewSimEnv(net), "chi", chi.Options{
			Round: 500 * time.Millisecond, Calibration: cal,
			SingleThreshold: 0.999, CombinedThreshold: 0.99,
			FabricationTolerance: 2,
			Queues:               []chi.QueueID{{R: faulty, RD: 3}},
		}, hooks)
		drive(net)
		judge("per interface (Fig 2.3)", "Protocol χ", log)
	}
	// Per path-segment ends (Fig 2.4): Πk+2.
	{
		net := buildNet(seed + 3)
		hooks, log := protocol.LogHooks()
		protocol.MustAttach(protocol.NewSimEnv(net), "pik2", pik2.Options{
			K: 1, Round: 500 * time.Millisecond, Timeout: 100 * time.Millisecond,
			Thresholds: tvinfo.Thresholds{Loss: 2, Fabrication: 2},
		}, hooks)
		drive(net)
		judge("per path-segment ends (Fig 2.4)", "Protocol Πk+2", log)
	}
	// Per path-segment nodes (Fig 2.5): Π2.
	{
		net := buildNet(seed + 4)
		hooks, log := protocol.LogHooks()
		protocol.MustAttach(protocol.NewSimEnv(net), "pi2", pi2.Options{
			K: 1, Round: 500 * time.Millisecond, Settle: 150 * time.Millisecond,
			Thresholds: tvinfo.Thresholds{Loss: 2, Fabrication: 2},
		}, hooks)
		drive(net)
		judge("per path-segment nodes (Fig 2.5)", "Protocol Π2", log)
	}
	return res
}

// Table renders the design-space matrix.
func (r *ArchitecturesResult) Table() *Table {
	t := &Table{
		Title:  "§2.3/§2.4 — traffic-validation architectures vs the same 20% drop attack",
		Header: []string{"architecture", "protocol", "detected", "accurate", "precision", "first detection"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Architecture, row.Protocol, row.Detected, row.Accurate,
			row.Precision, fmt.Sprintf("%.2fs", row.DetectionAt.Seconds()))
	}
	t.Notes = append(t.Notes,
		"paper shape: every architecture detects; precision orders replica(1) ≤ per-router/interface/nodes(2) ≤ ends(k+2)")
	return t
}
