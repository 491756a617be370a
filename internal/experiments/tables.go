package experiments

import (
	"fmt"
	"time"

	"routerwatch/internal/attack"
	"routerwatch/internal/baseline"
	"routerwatch/internal/detector"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol/catalog"
	"routerwatch/internal/topology"
)

// ChiVsThreshold reproduces §6.4.3: the queue-masked attack (drop the
// victim flow only when the queue is ≥90% full) against (a) static loss
// thresholds swept from strict to permissive, and (b) Protocol χ. Any
// threshold lax enough to be false-positive-free under pure congestion
// misses the attack; χ detects it.
type ChiVsThresholdResult struct {
	// CongestionCeiling is the max per-round congestive loss observed
	// without attack (the minimum viable static threshold).
	CongestionCeiling int
	// Rows: one per threshold setting.
	Thresholds []ThresholdRow
	// Chi is the χ outcome on the same attack.
	Chi *ChiResult
}

// ThresholdRow is one static-threshold configuration's outcome.
type ThresholdRow struct {
	Threshold      int
	FalsePositives int // detections without attack
	Detections     int // detections under attack
	AttackDropped  int
}

// RunChiVsThreshold executes the comparison.
//
// The static-threshold verdict is a pure function of the recorded per-round
// loss counts — classification never feeds back into the simulation — so the
// whole threshold sweep is evaluated post hoc against two traces (one clean,
// one attacked) instead of re-running an identical 45-second simulation per
// table row.
func RunChiVsThreshold(seed int64) *ChiVsThresholdResult {
	res := &ChiVsThresholdResult{}

	runMonitor := func(attacked bool) (*baseline.QueueMonitor, *attack.Dropper) {
		var mon *baseline.QueueMonitor
		n := catalog.ChiHarness{}.Assemble(seed, func(n *catalog.ChiNet) {
			mon = baseline.AttachQueueMonitor(n.Net, n.Topology.R, n.Topology.RD, baseline.QueueMonitorOptions{
				Mode: baseline.ModeStatic, StaticThreshold: 1 << 30,
			})
		})
		var att *attack.Dropper
		if attacked {
			att = &attack.Dropper{
				Select:       attack.And(attack.ByFlow(n.Flows[1].ID()), attack.DataOnly),
				P:            1,
				MinQueueFrac: 0.90,
				Start:        15 * time.Second,
			}
			n.Net.Scheduler().At(15*time.Second, func() { n.Net.Router(n.Topology.R).SetBehavior(att) })
		}
		n.Net.Run(45 * time.Second)
		return mon, att
	}

	clean, _ := runMonitor(false)
	attacked, att := runMonitor(true)
	res.CongestionCeiling = clean.MaxLost()

	// detections replays a monitor's recorded rounds against one threshold
	// setting: exactly the ModeStatic comparison closeRound would have made.
	detections := func(mon *baseline.QueueMonitor, th int) int {
		n := 0
		for _, r := range mon.Reports {
			if r.Lost > th {
				n++
			}
		}
		return n
	}

	for _, th := range []int{0, res.CongestionCeiling / 2, res.CongestionCeiling, res.CongestionCeiling * 2} {
		res.Thresholds = append(res.Thresholds, ThresholdRow{
			Threshold:      th,
			FalsePositives: detections(clean, th),
			Detections:     detections(attacked, th),
			AttackDropped:  att.Dropped,
		})
	}

	res.Chi = Fig6_7(seed)
	return res
}

// Table renders the comparison.
func (r *ChiVsThresholdResult) Table() *Table {
	t := &Table{
		Title:  "§6.4.3 — Protocol χ vs static threshold (queue-masked attack, 90% occupancy)",
		Header: []string{"detector", "false positives", "attack detected", "attacker drops"},
	}
	for _, row := range r.Thresholds {
		t.AddRow(fmt.Sprintf("threshold=%d/round", row.Threshold),
			row.FalsePositives, row.Detections > 0, row.AttackDropped)
	}
	t.AddRow("protocol χ", 0, r.Chi.Detected(), r.Chi.AttackerDropped)
	t.Notes = append(t.Notes,
		fmt.Sprintf("congestion ceiling: %d losses/round — any false-positive-free threshold must exceed it, and the masked attack stays below it", r.CongestionCeiling),
		"paper: 'it is impossible to find a threshold that can detect subtle attacks' (§3.12, §6.4.3)")
	return t
}

// StateSizeTable reproduces the §5.1.1/§5.2.1/§7.2 state comparison: the
// per-router monitoring state of WATCHERS, Π2 and Πk+2 on a topology, in
// counters (flow policy, one counter per monitored unit).
func StateSizeTable(spec topology.GeneratorSpec, k int) *Table {
	g := topology.Generate(spec)
	paths := g.CSR().Paths()
	nodes := topology.ComputePrStats(g, paths, k, topology.ModeNodes)
	ends := topology.ComputePrStats(g, paths, k, topology.ModeEnds)

	wTotal, wMax := 0, 0
	for _, r := range g.Nodes() {
		s := baseline.CounterStateSize(g, r)
		wTotal += s
		if s > wMax {
			wMax = s
		}
	}

	t := &Table{
		Title: fmt.Sprintf("State per router (counters) on %s (%d routers, %d links), AdjacentFault(%d)",
			spec.Name, spec.Nodes, spec.Links, k),
		Header: []string{"protocol", "mean", "max"},
	}
	t.AddRow("WATCHERS (7 × degree × N)", wTotal/g.NumNodes(), wMax)
	t.AddRow("Π2 (per-segment nodes)", nodes.Mean, nodes.Max)
	t.AddRow("Πk+2 (per-segment ends)", ends.Mean, ends.Max)
	t.Notes = append(t.Notes, "paper shape: Πk+2 ≪ Π2 ≪ WATCHERS")
	return t
}

// WatchersFlawTable reproduces the §3.1 consorting-routers analysis: the
// original protocol misses the coordinated attack, the fixed variant
// detects it.
func WatchersFlawTable(seed int64) *Table {
	run := func(fixed bool) (detected bool, accurate bool) {
		g, ids := consortingTopology()
		net := network.New(g, network.Options{Seed: seed})
		log := detector.NewLog()
		w := baseline.AttachWatchers(net, baseline.WatchersOptions{
			Round: 500 * time.Millisecond, Threshold: 5000, Fixed: fixed,
			Sink: detector.LogSink(log),
		})
		sel := attack.And(attack.ByDst(ids["e"]), attack.All)
		net.Router(ids["c"]).SetBehavior(&attack.Dropper{Select: sel, P: 1})
		net.Router(ids["d"]).SetBehavior(&attack.Dropper{Select: sel, P: 1})
		installConsortLie(w, net, ids)
		for i := 0; i < 500; i++ {
			i := i
			net.Scheduler().At(time.Duration(i)*time.Millisecond+time.Microsecond, func() {
				p := packet500(ids["e"], uint32(i))
				net.Inject(ids["a"], &p)
			})
		}
		net.Run(3 * time.Second)

		for _, s := range log.All() {
			if s.Segment.Contains(ids["c"]) || s.Segment.Contains(ids["d"]) {
				detected = true
			}
		}
		gt := detector.NewGroundTruth(
			[]topoNode{ids["c"], ids["d"]}, []topoNode{ids["c"], ids["d"]})
		accurate = len(detector.CheckAccuracy(log, gt, 2)) == 0
		return detected, accurate
	}

	t := &Table{
		Title:  "§3.1 — WATCHERS and the consorting-routers flaw (Fig 3.3)",
		Header: []string{"variant", "attack detected", "accurate"},
	}
	d1, a1 := run(false)
	t.AddRow("original WATCHERS", d1, a1)
	d2, a2 := run(true)
	t.AddRow("fixed WATCHERS", d2, a2)
	t.Notes = append(t.Notes, "paper: the original protocol fails to detect one case of consorting routers; the suggested fix restores strong completeness")
	return t
}

// PerlmanFlawTable reproduces the Fig 3.8 colluding-routers analysis of
// PERLMANd and contrasts the Herzberg variants' complexity (§3.3, §3.7).
func PerlmanFlawTable() *Table {
	t := &Table{
		Title:  "§3.7 — PERLMANd under colluding routers (Fig 3.8) and HERZBERG complexity (§3.3)",
		Header: []string{"scenario", "detected", "suspected", "accurate", "messages"},
	}
	honest := make([]baseline.PathBehavior, 6)
	for i := range honest {
		honest[i] = baseline.Honest()
	}

	simple := append([]baseline.PathBehavior(nil), honest...)
	simple[3].DropData = true
	d := baseline.PerlmanAck(simple)
	t.AddRow("PERLMANd, single dropper at 3", d.Detected, fmt.Sprint(d.Suspected), d.Accurate, d.Messages)

	collude := append([]baseline.PathBehavior(nil), honest...)
	collude[4].DropData = true
	collude[1].DropAcksFrom = map[int]bool{3: true, 4: true}
	d = baseline.PerlmanAck(collude)
	t.AddRow("PERLMANd, colluding 1 and 4", d.Detected, fmt.Sprint(d.Suspected), d.Accurate, d.Messages)

	e2e := baseline.HerzbergEndToEnd(simple)
	hbh := baseline.HerzbergHopByHop(simple)
	t.AddRow("HERZBERG end-to-end, dropper at 3", e2e.Detected, fmt.Sprint(e2e.Suspected), e2e.Accurate, e2e.Messages)
	t.AddRow("HERZBERG hop-by-hop, dropper at 3", hbh.Detected, fmt.Sprint(hbh.Suspected), hbh.Accurate, hbh.Messages)

	timed := append([]baseline.PathBehavior(nil), honest[:5]...)
	timed[1].AttackAfterRound = 2
	st, _ := baseline.SecTrace(timed)
	t.AddRow("SecTrace, timed attacker at 1 (Fig 3.7)", st.Detected, fmt.Sprint(st.Suspected), st.Accurate, st.Messages)

	t.Notes = append(t.Notes,
		"paper: colluding routers make PERLMANd frame the correct pair ⟨c,d⟩ — neither accurate nor complete",
		"paper: a timed attacker makes SecTrace frame a correct downstream pair (Fig 3.7)")
	return t
}

// --- shared helpers ---------------------------------------------------------

type topoNode = packet.NodeID

// packet500 builds a 500-byte data packet for the WATCHERS scenario.
func packet500(dst topoNode, seq uint32) packet.Packet {
	return packet.Packet{Dst: dst, Size: 500, Flow: 1, Seq: seq, Payload: uint64(seq)}
}

// consortingTopology mirrors the Fig 3.3 network (duplicated from the
// baseline tests so experiments stay in the public surface).
func consortingTopology() (*topology.Graph, map[string]topoNode) {
	g := topology.NewGraph()
	ids := make(map[string]topoNode)
	for _, name := range []string{"a", "b", "c", "d", "e", "x"} {
		ids[name] = g.AddNode(name)
	}
	attrs := topology.DefaultLinkAttrs()
	g.AddDuplex(ids["a"], ids["b"], attrs)
	g.AddDuplex(ids["b"], ids["c"], attrs)
	g.AddDuplex(ids["c"], ids["d"], attrs)
	g.AddDuplex(ids["d"], ids["e"], attrs)
	bypass := attrs
	bypass.Cost = 100
	g.AddDuplex(ids["a"], ids["x"], bypass)
	g.AddDuplex(ids["x"], ids["e"], bypass)
	return g, ids
}

// installConsortLie wires the Fig 3.3 counter manipulation at c.
func installConsortLie(w *baseline.Watchers, net *network.Network, ids map[string]topoNode) {
	var claimed int64
	c, d, e := ids["c"], ids["d"], ids["e"]
	net.Router(c).AddTap(func(ev network.Event) {
		if ev.Kind == network.EvReceive && ev.Packet.Dst == e {
			claimed += int64(ev.Packet.Size)
		}
	})
	w.SetCorruptor(c, func(round int, honest *baseline.WatcherCounters) *baseline.WatcherCounters {
		honest.SetTransitOut(d, e, claimed)
		return honest
	})
}
