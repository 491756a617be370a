package pik2

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"routerwatch/internal/attack"
	"routerwatch/internal/detector"
	"routerwatch/internal/detector/tvinfo"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/summary"
	"routerwatch/internal/topology"
)

func reconcileOpts(log *detector.Log) Options {
	o := testOpts(log)
	o.Exchange = ExchangeReconcile
	return o
}

func TestReconcileNoAttackNoSuspicions(t *testing.T) {
	log := detector.NewLog()
	net := network.New(topology.Line(4), network.Options{Seed: 61, ProcessingJitter: 100 * time.Microsecond})
	Attach(protocol.NewSimEnv(net), reconcileOpts(log))
	pump(net, 0, 3, 2000, 1)
	pump(net, 3, 0, 2000, 2)
	net.Run(4 * time.Second)
	if log.Len() != 0 {
		t.Fatalf("false positives under reconciliation exchange: %v", log.All())
	}
}

func TestReconcileDetectsSmallDrop(t *testing.T) {
	// A subtle attack: drop a handful of packets per round — above the
	// loss threshold but within the reconciliation budget, so the exact
	// missing fingerprints are recovered.
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{Seed: 62})
	Attach(protocol.NewSimEnv(net), reconcileOpts(log))
	net.Router(1).SetBehavior(&attack.Dropper{
		Select: attack.All, P: 0.01, Rng: rand.New(rand.NewSource(3)),
	})
	pump(net, 0, 2, 2000, 1)
	net.Run(4 * time.Second)
	if log.Len() == 0 {
		t.Fatal("1% drop not detected under reconciliation exchange")
	}
	gt := detector.NewGroundTruth([]packet.NodeID{1}, nil)
	if v := detector.CheckAccuracy(log, gt, 3); len(v) != 0 {
		t.Fatalf("accuracy violations: %v", v)
	}
}

func TestReconcileBudgetOverflowStillDetects(t *testing.T) {
	// A massive drop overflows the reconciliation budget; the overflow is
	// itself conclusive evidence.
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{Seed: 63})
	Attach(protocol.NewSimEnv(net), reconcileOpts(log))
	net.Router(1).SetBehavior(&attack.Dropper{Select: attack.All, P: 1})
	pump(net, 0, 2, 500, 1)
	net.Run(3 * time.Second)
	if log.Len() == 0 {
		t.Fatal("total drop not detected under reconciliation exchange")
	}
}

func TestReconcileBandwidthMuchSmaller(t *testing.T) {
	// The point of Appendix A: exchange bandwidth proportional to the
	// difference, not the traffic. Same workload, both modes.
	run := func(mode ExchangeMode) int64 {
		log := detector.NewLog()
		net := network.New(topology.Line(3), network.Options{Seed: 64})
		opts := testOpts(log)
		opts.Exchange = mode
		p := Attach(protocol.NewSimEnv(net), opts)
		pump(net, 0, 2, 3000, 1)
		net.Run(4 * time.Second)
		if log.Len() != 0 {
			t.Fatalf("mode %v: unexpected suspicions %v", mode, log.All())
		}
		return p.BandwidthBytes()
	}
	full := run(ExchangeFull)
	recon := run(ExchangeReconcile)
	if recon*5 >= full {
		t.Fatalf("reconciliation bandwidth %d not ≪ full %d", recon, full)
	}
}

func TestReconcileRequiresContentPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ExchangeReconcile with PolicyOrder did not panic")
		}
	}()
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{Seed: 65})
	opts := reconcileOpts(log)
	opts.Policy = tvinfo.PolicyOrder
	Attach(protocol.NewSimEnv(net), opts)
}

// TestReconcileNegativeCountSuspected: router 0 signs a round-0 summary of
// ⟨0,1,2⟩ with the right number of evaluations and Count = math.MinInt64,
// which sent router 2's judgeReconcile into a ~2⁶²-step degree search. It
// must suspect the segment instead, which contains the message's signer.
func TestReconcileNegativeCountSuspected(t *testing.T) {
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{Seed: 67})
	env := protocol.NewSimEnv(net)
	opts := reconcileOpts(log)
	p := Attach(env, opts)
	net.Scheduler().At(testRound+opts.Timeout/2, func() {
		msg := &SummaryMsg{Seg: topology.Segment{0, 1, 2}, Round: 0, From: 0, Count: math.MinInt64,
			Evals: summary.EvaluateCharPoly([]uint64{42}, p.reconcilePoints())}
		msg.Sig = net.Auth().Sign(0, appendSignedBody(nil, msg))
		env.SendControl(network.ControlMessage{From: 0, To: 2, Kind: KindSummary, Payload: msg, Path: topology.Path(msg.Seg)})
	})
	net.Run(2 * testRound)

	for _, s := range log.All() {
		if s.By == 2 && s.Kind == detector.KindTrafficValidation && s.Segment.Contains(0) &&
			strings.Contains(s.Detail, "negative reconciliation set size") {
			return
		}
	}
	t.Fatalf("router 2 raised no suspicion naming the negative count:\n%s", log)
}

func TestReconcileModificationDetected(t *testing.T) {
	// Modification = one missing + one extra fingerprint: reconciliation
	// recovers both sides of the difference.
	log := detector.NewLog()
	net := network.New(topology.Line(3), network.Options{Seed: 66})
	opts := reconcileOpts(log)
	opts.Thresholds.Loss = 0
	opts.Thresholds.Fabrication = 0
	Attach(protocol.NewSimEnv(net), opts)
	net.Router(1).SetBehavior(&attack.Modifier{Select: attack.ByFlow(1), Start: 600 * time.Millisecond})
	// Sparse traffic well inside round interiors to avoid boundary noise
	// with zero thresholds.
	for i := 0; i < 40; i++ {
		i := i
		net.Scheduler().At(time.Duration(100+i*20)*time.Millisecond, func() {
			net.Inject(0, &packet.Packet{Dst: 2, Size: 500, Flow: 1, Seq: uint32(i), Payload: uint64(i)})
		})
	}
	net.Run(3 * time.Second)
	found := false
	for _, s := range log.All() {
		if s.Kind == detector.KindTrafficValidation && s.Segment.Contains(1) {
			found = true
		}
	}
	if !found {
		t.Fatalf("modification not detected: %v", log.All())
	}
}
