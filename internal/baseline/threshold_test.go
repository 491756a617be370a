package baseline

import (
	"math/rand"
	"testing"
	"time"

	"routerwatch/internal/attack"
	"routerwatch/internal/detector"
	"routerwatch/internal/network"
	"routerwatch/internal/tcpsim"
	"routerwatch/internal/topology"
)

// thresholdRig builds the Fig 6.4 topology with TCP congestion and an
// optional queue-masked attack, returning the monitor.
func thresholdRig(seed int64, opts QueueMonitorOptions, attacked bool) (*QueueMonitor, *attack.Dropper) {
	st := topology.SimpleChi(3, 2)
	net := network.New(st.Graph, network.Options{Seed: seed, ProcessingJitter: 2 * time.Millisecond})
	mon := AttachQueueMonitor(net, st.R, st.RD, opts)
	man := tcpsim.NewManager(net)
	var flows []*tcpsim.Flow
	for i := 0; i < 3; i++ {
		flows = append(flows, man.StartFlow(tcpsim.FlowConfig{
			Src: st.Sources[i], Dst: st.Sinks[i%2],
			Start: time.Duration(i) * 200 * time.Millisecond,
		}))
	}
	var att *attack.Dropper
	if attacked {
		att = &attack.Dropper{
			Select:       attack.And(attack.ByFlow(flows[1].ID()), attack.DataOnly),
			P:            1,
			MinQueueFrac: 0.90,
			Start:        15 * time.Second,
		}
		net.Scheduler().At(15*time.Second, func() { net.Router(st.R).SetBehavior(att) })
	}
	net.Run(45 * time.Second)
	return mon, att
}

func TestStaticThresholdDilemma(t *testing.T) {
	// §6.4.3: find the smallest threshold with no false positives under
	// pure congestion, then show the queue-masked attack slips under it.
	mon, _ := thresholdRig(101, QueueMonitorOptions{Mode: ModeStatic, StaticThreshold: 1 << 30}, false)
	cleanMax := mon.MaxLost()
	if cleanMax == 0 {
		t.Fatal("no congestive losses; dilemma test vacuous")
	}

	// A threshold at the congestion ceiling avoids false positives...
	monClean, _ := thresholdRig(101, QueueMonitorOptions{Mode: ModeStatic, StaticThreshold: cleanMax}, false)
	if monClean.Detections() != 0 {
		t.Fatalf("threshold %d still produced %d false positives", cleanMax, monClean.Detections())
	}

	// ...but the masked attack stays below it.
	monAtt, att := thresholdRig(101, QueueMonitorOptions{Mode: ModeStatic, StaticThreshold: cleanMax}, true)
	if att.Dropped == 0 {
		t.Fatal("attack never fired")
	}
	if monAtt.Detections() != 0 {
		// Seed-dependent: if this fires the attack exceeded the ceiling;
		// the dilemma claim needs the attack to hide, so fail loudly.
		t.Fatalf("masked attack exceeded the congestion ceiling (%d rounds flagged) — dilemma not demonstrated", monAtt.Detections())
	}

	// A threshold low enough to catch the attack's per-round magnitude
	// would false-positive on congestion: demonstrate with threshold 0.
	monFP, _ := thresholdRig(101, QueueMonitorOptions{Mode: ModeStatic, StaticThreshold: 0}, false)
	if monFP.Detections() == 0 {
		t.Fatal("zero threshold produced no false positives despite congestion")
	}
}

func TestTrafficModelImprecise(t *testing.T) {
	// §6.1.2: the Appenzeller-model predictor is too rough — with the
	// true flow count it badly mispredicts per-round congestive losses in
	// at least some rounds (false positives without any attack, or a
	// prediction so inflated it would mask attacks).
	mon, _ := thresholdRig(202, QueueMonitorOptions{
		Mode: ModeModel, Flows: 3, RTT: 30 * time.Millisecond, MeanPacketSize: 1000,
	}, false)
	falsePositives := mon.Detections()
	overshoot := 0
	for _, r := range mon.Reports {
		if r.Predicted > 3*float64(r.Lost+1) {
			overshoot++
		}
	}
	if falsePositives == 0 && overshoot == 0 {
		t.Fatalf("model predictor was accurate; the paper's imprecision claim did not reproduce (reports: %+v)", mon.Reports[:5])
	}
}

func TestZhangStationaryVsBursty(t *testing.T) {
	// ZHANG's Poisson model works for stationary traffic: a CBR workload
	// with a deliberate overload gives predictable loss, and a malicious
	// dropper on top is detected. Bursty TCP breaks the stationarity
	// assumption (demonstrated by the false-positive count).
	st := topology.SimpleChi(3, 2)
	net := network.New(st.Graph, network.Options{Seed: 303, ProcessingJitter: time.Millisecond})
	log := detector.NewLog()
	z := AttachZhang(net, st.R, st.RD, ZhangOptions{
		Round:        time.Second,
		LearnRounds:  5,
		ServiceRate:  1250, // 10 Mbit/s of 1000 B packets
		QueuePackets: 50,
		Sink:         detector.LogSink(log),
	})
	man := tcpsim.NewManager(net)
	// Stationary near-capacity CBR: 9.6 Mbit/s aggregate.
	for i := 0; i < 3; i++ {
		man.StartCBR(st.Sources[i], st.Sinks[i%2], 3.2e6, 1000, 0, 40*time.Second)
	}
	// Attack: drop 5% of everything from 20 s.
	att := &attack.Dropper{Select: attack.DataOnly, P: 0.05,
		Rng: rand.New(rand.NewSource(11)), Start: 20 * time.Second}
	net.Router(st.R).SetBehavior(att)
	net.Run(40 * time.Second)

	if att.Dropped == 0 {
		t.Fatal("attack never fired")
	}
	detected := false
	for _, r := range z.Reports {
		if r.Detected && r.Round >= 20 {
			detected = true
		}
	}
	if !detected {
		t.Fatalf("ZHANG missed a 5%% drop attack under stationary traffic: %+v", z.Reports)
	}
	for _, r := range z.Reports {
		if r.Detected && r.Round < 20 {
			t.Fatalf("false positive before the attack: %+v", r)
		}
	}
	// Every flagged round reaches the sink as a suspicion of ⟨r, rd⟩.
	if log.Len() != z.Detections() {
		t.Fatalf("%d suspicions for %d flagged rounds", log.Len(), z.Detections())
	}
	for _, s := range log.All() {
		if s.By != st.RD || len(s.Segment) != 2 || s.Segment[0] != st.R || s.Segment[1] != st.RD {
			t.Fatalf("suspicion %v does not name the monitored queue", s)
		}
	}
}
