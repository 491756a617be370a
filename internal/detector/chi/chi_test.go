package chi

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"routerwatch/internal/attack"
	"routerwatch/internal/auth"
	"routerwatch/internal/detector"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/queue"
	"routerwatch/internal/stats"
	"routerwatch/internal/tcpsim"
	"routerwatch/internal/topology"
)

// rig is a ready-to-run χ experiment on the Fig 6.4 topology.
type rig struct {
	net   *network.Network
	st    *topology.SimpleChiTopology
	man   *tcpsim.Manager
	proto *Protocol
	log   *detector.Log
	repts []RoundReport
	flows []*tcpsim.Flow
}

// buildRig assembles the topology, χ deployment, and TCP workload.
// redCfg non-nil switches the bottleneck (and validator) to RED.
func buildRig(seed int64, opts Options, redCfg *queue.REDConfig) *rig {
	st := topology.SimpleChi(3, 2)
	// Millisecond-scale processing jitter models the scheduling and
	// internal-multiplexing noise of the paper's PC routers (§6.2.1): it
	// is what makes qact − qpred a non-degenerate random variable. The RED
	// experiments mirror the paper's NS *simulation* (§6.5.3), whose
	// timing is nearly exact, so they use a much smaller jitter.
	jitter := 2 * time.Millisecond
	netOpts := network.Options{Seed: seed, ProcessingJitter: jitter}
	if redCfg != nil {
		netOpts.ProcessingJitter = 200 * time.Microsecond
		netOpts.QueueFactory = network.REDFactory(*redCfg)
	}
	net := network.New(st.Graph, netOpts)

	r := &rig{net: net, st: st, log: detector.NewLog()}
	opts.Queues = []QueueID{{R: st.R, RD: st.RD}}
	opts.RED = redCfg
	if opts.Sink == nil {
		opts.Sink = detector.LogSink(r.log)
	}
	prevObs := opts.Observer
	opts.Observer = func(rr RoundReport) {
		r.repts = append(r.repts, rr)
		if prevObs != nil {
			prevObs(rr)
		}
	}
	r.proto = Attach(protocol.NewSimEnv(net), opts)
	r.man = tcpsim.NewManager(net)
	return r
}

// startFlows launches n greedy TCP flows across the bottleneck.
func (r *rig) startFlows(n int) {
	for i := 0; i < n; i++ {
		f := r.man.StartFlow(tcpsim.FlowConfig{
			Src:   r.st.Sources[i%len(r.st.Sources)],
			Dst:   r.st.Sinks[i%len(r.st.Sinks)],
			Start: time.Duration(i) * 200 * time.Millisecond,
		})
		r.flows = append(r.flows, f)
	}
}

// learnParams runs a no-attack learning simulation and returns the fitted
// calibration (§6.2.1's learning period).
func learnParams(t *testing.T, seed int64, redCfg *queue.REDConfig) Calibration {
	return learnParamsN(t, seed, redCfg, 3)
}

// learnParamsN learns with a specified workload size; calibration should
// match the detection run's traffic mix. RED calibration is two-phase:
// first the qerror moments, then — with the debiased replay active — the
// empirical null of the windowed excess Z-statistic.
func learnParamsN(t *testing.T, seed int64, redCfg *queue.REDConfig, flows int) Calibration {
	t.Helper()
	onePass := func(seed int64, base Calibration) Calibration {
		r := buildRig(seed, Options{Learning: true, Round: time.Second, Calibration: base}, redCfg)
		r.startFlows(flows)
		r.net.Run(60 * time.Second)
		v := r.proto.Validator(QueueID{R: r.st.R, RD: r.st.RD})
		if len(v.QErrorSamples()) < 500 {
			t.Fatalf("learning collected only %d samples", len(v.QErrorSamples()))
		}
		return v.Calibrate()
	}
	cal := onePass(seed, Calibration{})
	if redCfg == nil {
		cal.REDExcessStd = 0
		return cal
	}
	return onePass(seed+100000, Calibration{Mu: cal.Mu, Sigma: cal.Sigma})
}

// detectOpts applies the calibrated target significance values: across
// no-attack calibration runs the single-loss confidence never exceeded
// 0.988 and the combined confidence never exceeded 0.967, so thresholds of
// 0.999 / 0.99 bound false positives while catching the queue-masked
// attacks (§6.1.3's "target significance value").
func detectOpts(cal Calibration) Options {
	return Options{
		Round:             time.Second,
		Calibration:       cal,
		SingleThreshold:   0.999,
		CombinedThreshold: 0.99,
		// The windowed RED excess test's no-attack ceiling measured 0.944
		// over 3×150 s low-jitter calibration runs; 0.97 clears it while
		// catching the masked attacks.
		REDThreshold:         0.97,
		FabricationTolerance: 2,
	}
}

func TestLearningQErrorApproximatelyNormal(t *testing.T) {
	// Fig 6.3: the prediction error qact − qpred is well modeled by a
	// normal distribution.
	r := buildRig(21, Options{Learning: true, Round: time.Second}, nil)
	r.startFlows(3)
	// Varied-size cross traffic diversifies the error lattice, as real
	// mixed workloads do.
	r.man.StartCBR(r.st.Sources[0], r.st.Sinks[1], 5e5, 300, 0, 30*time.Second)
	r.man.StartPoisson(r.st.Sources[1], r.st.Sinks[0], 100, 700, 0, 30*time.Second)
	r.net.Run(30 * time.Second)
	samples := r.proto.Validator(QueueID{R: r.st.R, RD: r.st.RD}).QErrorSamples()
	if len(samples) < 1000 {
		t.Fatalf("only %d samples", len(samples))
	}
	rep := stats.CheckNormality(samples)
	t.Logf("qerror: %v", rep)
	// The simulated error is lattice-valued (multiples of packet sizes),
	// so the KS distance to a continuous normal has a floor; the claim
	// that matters for the confidence tests is that the error is roughly
	// symmetric, unimodal and light-tailed around the fitted mean.
	if math.Abs(rep.Skewness) > 2 {
		t.Fatalf("qerror heavily skewed: %v", rep)
	}
	if rep.ExcessKurtosis > 10 {
		t.Fatalf("qerror heavy-tailed: %v", rep)
	}
	if rep.StdDev > 5000 {
		t.Fatalf("qerror sd %v too large relative to the 50 kB buffer", rep.StdDev)
	}
}

func TestNoAttackNoDetections(t *testing.T) {
	// Fig 6.5: under pure congestion the detector stays silent even
	// though the bottleneck drops packets.
	r := buildRig(23, detectOpts(learnParams(t, 22, nil)), nil)
	r.startFlows(3)
	r.net.Run(40 * time.Second)

	congestive := 0
	for _, rr := range r.repts {
		congestive += rr.Congestive
		if rr.Detected {
			t.Fatalf("false detection in round %d: %+v", rr.Round, rr)
		}
	}
	if congestive == 0 {
		t.Fatal("workload produced no congestive drops; test is vacuous")
	}
	if r.log.Len() != 0 {
		t.Fatalf("suspicions without attack: %v", r.log.All())
	}
}

func TestAttack1Drop20PercentOfSelectedFlow(t *testing.T) {
	// Fig 6.6: drop 20% of the selected flow's packets.
	r := buildRig(25, detectOpts(learnParams(t, 24, nil)), nil)
	r.startFlows(3)
	attackStart := 15 * time.Second
	r.net.Run(attackStart) // flows established before the attack
	victim := r.flows[0].ID()
	r.net.Router(r.st.R).SetBehavior(&attack.Dropper{
		Select: attack.And(attack.ByFlow(victim), attack.DataOnly),
		P:      0.2, Rng: rand.New(rand.NewSource(1)), Start: attackStart,
	})
	r.net.Run(40 * time.Second)

	if r.log.Len() == 0 {
		t.Fatal("20% selective drop not detected")
	}
	first := r.log.FirstAt()
	if first < attackStart {
		t.Fatalf("detected before attack at %v", first)
	}
	if first > attackStart+5*time.Second {
		t.Fatalf("detection took %v after attack start", first-attackStart)
	}
	for _, s := range r.log.All() {
		if !s.Segment.Contains(r.st.R) {
			t.Fatalf("suspicion does not implicate r: %v", s)
		}
	}
}

func TestAttack2DropWhenQueue90PercentFull(t *testing.T) {
	// Fig 6.7: the attacker hides inside congestion, dropping the victim
	// flow only when the queue is ≥90% full — below any workable static
	// threshold, but χ's replay knows there was still room.
	r := buildRig(27, detectOpts(learnParams(t, 26, nil)), nil)
	r.startFlows(3)
	attackStart := 15 * time.Second
	r.net.Run(attackStart)
	victim := r.flows[1].ID()
	r.net.Router(r.st.R).SetBehavior(&attack.Dropper{
		Select: attack.And(attack.ByFlow(victim), attack.DataOnly),
		P:      1, MinQueueFrac: 0.90, Start: attackStart,
	})
	r.net.Run(45 * time.Second)
	if r.log.Len() == 0 {
		t.Fatal("queue-masked (90%) attack not detected")
	}
}

func TestAttack3DropWhenQueue95PercentFull(t *testing.T) {
	// Fig 6.8: even finer masking at 95% queue occupancy.
	r := buildRig(29, detectOpts(learnParams(t, 28, nil)), nil)
	r.startFlows(3)
	attackStart := 15 * time.Second
	r.net.Run(attackStart)
	victim := r.flows[1].ID()
	r.net.Router(r.st.R).SetBehavior(&attack.Dropper{
		Select: attack.And(attack.ByFlow(victim), attack.DataOnly),
		P:      1, MinQueueFrac: 0.95, Start: attackStart,
	})
	r.net.Run(45 * time.Second)
	if r.log.Len() == 0 {
		t.Fatal("queue-masked (95%) attack not detected")
	}
}

func TestAttack4SYNDrop(t *testing.T) {
	// Fig 6.9: target a host opening a connection by dropping SYNs — a
	// single-packet-scale attack with outsized victim impact.
	r := buildRig(31, detectOpts(learnParams(t, 30, nil)), nil)
	r.startFlows(2)
	attackStart := 12 * time.Second
	r.net.Run(attackStart)
	r.net.Router(r.st.R).SetBehavior(&attack.Dropper{
		Select: attack.SYNOnly, P: 1, Start: attackStart,
	})
	// The victim tries to open a connection during the attack.
	victim := r.man.StartFlow(tcpsim.FlowConfig{
		Src: r.st.Sources[2], Dst: r.st.Sinks[0],
		Start: attackStart + 500*time.Millisecond, MaxPackets: 10,
	})
	r.net.Run(30 * time.Second)

	if r.log.Len() == 0 {
		t.Fatal("SYN-drop attack not detected")
	}
	// The victim experienced the 3 s SYN timeout (it never connects while
	// the attack persists).
	if victim.Stats.SynRetries == 0 {
		t.Fatal("victim flow was not actually harmed; attack misconfigured")
	}
	// SYN drops with an un-congested margin should trip the single-loss
	// test specifically.
	foundSingle := false
	for _, s := range r.log.All() {
		if s.Kind == detector.KindSingleLoss {
			foundSingle = true
		}
	}
	if !foundSingle {
		t.Fatalf("expected a single-loss detection: %v", r.log.All())
	}
}

func TestProtocolFaultyReportSuppression(t *testing.T) {
	// r suppresses a neighbor's Qin report in transit: the validator times
	// out and suspects ⟨rs, r, rd⟩. Once r relays reports again, the
	// disabled validator admits none of them.
	r := buildRig(33, detectOpts(learnParams(t, 32, nil)), nil)
	r.startFlows(2)
	r.net.Router(r.st.R).SetBehavior(&attack.ControlDropper{Kinds: map[string]bool{KindBatch: true}})
	r.net.Run(3 * time.Second)
	r.net.Router(r.st.R).SetBehavior(nil)
	r.net.Run(10 * time.Second)
	for _, rep := range r.proto.validators[QueueID{R: r.st.R, RD: r.st.RD}].reporters {
		if rep.got != nil {
			t.Fatalf("disabled validator admitted %v's round-%d batch", rep.rs, rep.got.Round)
		}
	}

	found := false
	for _, s := range r.log.All() {
		if s.Kind == detector.KindExchangeTimeout && s.Segment.Contains(r.st.R) && len(s.Segment) == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("report suppression not detected: %v", r.log.All())
	}
}

func TestFabricationDetected(t *testing.T) {
	r := buildRig(35, detectOpts(learnParams(t, 34, nil)), nil)
	r.startFlows(1)
	// r fabricates packets toward a sink, claiming they came from s1.
	attack.NewFabricator(r.net, r.st.R, r.st.Sources[0], r.st.Sinks[1], 700, 50*time.Millisecond)
	r.net.Run(10 * time.Second)

	found := false
	for _, s := range r.log.All() {
		if s.Kind == detector.KindFabrication && s.Segment.Contains(r.st.R) {
			found = true
		}
	}
	if !found {
		t.Fatalf("fabrication not detected: %v", r.log.All())
	}
}

func TestDetectionImplicatesOnlyGuiltyQueue(t *testing.T) {
	// Accuracy: every suspicion in the drop-attack scenario names a
	// segment containing the faulty router.
	r := buildRig(37, detectOpts(learnParams(t, 36, nil)), nil)
	r.startFlows(3)
	r.net.Run(15 * time.Second)
	victim := r.flows[0].ID()
	r.net.Router(r.st.R).SetBehavior(&attack.Dropper{
		Select: attack.And(attack.ByFlow(victim), attack.DataOnly),
		P:      0.5, Rng: rand.New(rand.NewSource(3)), Start: 15 * time.Second,
	})
	r.net.Run(40 * time.Second)

	gt := detector.NewGroundTruth([]packet.NodeID{r.st.R}, nil)
	if v := detector.CheckAccuracy(r.log, gt, 3); len(v) != 0 {
		t.Fatalf("accuracy violations: %v", v)
	}
	if r.log.Len() == 0 {
		t.Fatal("attack not detected")
	}
}

// TestForgedBatchCannotFrame: a batch the validator did not ask for cannot
// make it accuse a correct segment. Sink t1, no reporter of Q(r→rd), sends
// rd five batches while round 3's checkpoint is pending, each ahead of s1's
// genuine round-3 batch: one naming reporter s1 for round 3 under a tag s1
// never made, one naming s1 for round 5, a replay of an empty batch s1
// signed for round 2, one t1 signed itself, and a typed nil. Admitted
// before verification, the first filled s1's round-3 slot, kept s1's
// genuine batch out and framed ⟨s1, r, rd⟩ with an exchange timeout; the
// second would have done the same at round 5, and the nil panicked rd. No
// attack runs, so every round must validate and nothing may be suspected.
func TestForgedBatchCannotFrame(t *testing.T) {
	r := buildRig(33, detectOpts(learnParams(t, 32, nil)), nil)
	r.startFlows(2)
	q := QueueID{R: r.st.R, RD: r.st.RD}
	forger, s1 := r.st.Sinks[0], r.st.Sources[0]
	r.net.Run(4001 * time.Millisecond)
	signed := func(reporter packet.NodeID, round int) *Batch {
		b := &Batch{Queue: q, Reporter: reporter, Round: round}
		_, items := batchBodies(nil, nil, b)
		b.Sig = r.net.Auth().AggregateTag(reporter, items)
		return b
	}
	for _, b := range []*Batch{
		{Queue: q, Reporter: s1, Round: 3, Sig: auth.Signature{Signer: s1}},
		{Queue: q, Reporter: s1, Round: 5, Sig: auth.Signature{Signer: s1}},
		signed(s1, 2),
		signed(forger, 3),
		nil,
	} {
		r.net.SendControlDirect(forger, r.st.RD, KindBatch, b)
	}
	r.net.Run(10 * time.Second)

	if n := r.log.Len(); n != 0 {
		t.Fatalf("forged batches made rd raise %d suspicions, first %v", n, r.log.All()[0])
	}
	if len(r.repts) != 9 || r.repts[8].Round != 8 {
		t.Fatalf("validated %d rounds by 10 s, want rounds 0–8", len(r.repts))
	}
}

// TestRoundPathAllocs: χ's round path — each reporter's flush, rd's
// admission of the batch and the checkpoint's replay — allocates per
// deployment, not per batch. Under steady constant-rate traffic with no
// loss, a round of the whole simulation (three reporters sending ~170
// records each) allocates at most 2 objects: the Protocol's batch and lane
// chunks, a fresh set every ~8 rounds here, and the rig's growing report
// slice. Each batch once cost a Batch, four lanes, two aggregate tags and
// its share of a per-round admission map and checkpoint closure (~25 per
// round here).
func TestRoundPathAllocs(t *testing.T) {
	r := buildRig(41, Options{}, nil)
	for i, src := range r.st.Sources {
		r.man.StartCBR(src, r.st.Sinks[i%len(r.st.Sinks)], 2e6, 1500, 0, time.Hour)
	}
	end := 5 * time.Second
	r.net.Run(end)
	perRound := testing.AllocsPerRun(20, func() {
		end += time.Second
		r.net.Run(end)
	})
	if r.log.Len() != 0 || len(r.repts) < 25 {
		t.Fatalf("rig did not validate steadily: %d rounds, suspicions %v", len(r.repts), r.log.All())
	}
	if perRound > 2 {
		t.Errorf("a validated round allocates %v objects, want at most 2", perRound)
	}
}
