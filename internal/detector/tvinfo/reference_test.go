package tvinfo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"routerwatch/internal/auth"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

// recorded is one packet recorded into one watch.
type recorded struct {
	w      *Watch
	fp     packet.Fingerprint
	size   int
	sinkTS time.Duration
	round  int
}

// OnSegment, refOnEvent and refRecord are PathOracle.OnSegment,
// Monitor.onEvent and Monitor.record as they stood before the route memo
// (ISSUE 19), kept verbatim as the oracle TestDispatchMatchesScan compares
// the memo against: walk every watch of the router, compare the event's
// peer with the watch's neighbour on the segment, ask the oracle whether the
// packet's predicted path follows the segment here, then fingerprint, sample
// and bin. The one change is refRecord's last line, which returns what the
// old code wrote into w.Summary(round). OnSegment is the definition of "the
// packet traverses π through this router" that Monitor.fill's window probes
// must agree with; nothing outside the tests calls it any more.

// OnSegment reports whether a packet routed src→dst traverses seg with the
// segment aligned so that seg[segPos] sits at the packet's position of
// router at.
func (o *PathOracle) OnSegment(src, dst packet.NodeID, flow packet.FlowID, seg topology.Segment, at packet.NodeID, segPos int) bool {
	path := o.Path(src, dst, flow)
	if path == nil {
		return false
	}
	for i, v := range path {
		if v != at {
			continue
		}
		start := i - segPos
		if start < 0 || start+len(seg) > len(path) {
			return false
		}
		for j, s := range seg {
			if path[start+j] != s {
				return false
			}
		}
		return true
	}
	return false
}

func refOnEvent(m *Monitor, ev network.Event) []recorded {
	var out []recorded
	switch ev.Kind {
	case network.EvDequeue:
		for _, w := range m.watches {
			if w.Pos < len(w.Seg)-1 && w.Seg[w.Pos+1] == ev.Peer {
				out = refRecord(out, m, w, ev.Packet, ev.Time)
			}
		}
	case network.EvReceive:
		for _, w := range m.watches {
			if w.Pos == len(w.Seg)-1 && w.Seg[w.Pos-1] == ev.Peer {
				out = refRecord(out, m, w, ev.Packet, ev.Time)
			}
		}
	}
	return out
}

func refRecord(out []recorded, m *Monitor, w *Watch, p *packet.Packet, now time.Duration) []recorded {
	if !m.rec.Oracle.OnSegment(p.Src, p.Dst, p.Flow, w.Seg, m.id, w.Pos) {
		return out
	}
	fp := m.rec.Env.Hasher().Fingerprint(p)
	if !w.sample.Selects(fp) {
		return out
	}
	sinkTS := now + w.transit(p.Size)
	return append(out, recorded{w, fp, p.Size, sinkTS, int(sinkTS / m.rec.Round)})
}

// scanEnv runs monitors on a simulated network and checks every tap event
// against the reference scan before the monitor under test sees it.
type scanEnv struct {
	t        *testing.T
	net      *network.Network
	rec      *Recording
	monitors map[packet.NodeID]*Monitor
	// seen is how many timed entries of each open round have been matched
	// to a reference record already.
	seen map[*Summary]int
	// events and records count what the comparison covered.
	events, records int
}

func (e *scanEnv) Graph() *topology.Graph { return e.net.Graph() }
func (e *scanEnv) Auth() *auth.Authority  { return e.net.Auth() }
func (e *scanEnv) Hasher() packet.Hasher  { return e.net.Hasher() }
func (e *scanEnv) Tap(at packet.NodeID, fn func(network.Event)) {
	e.net.Router(at).AddTap(func(ev network.Event) { e.check(e.monitors[at], ev, fn) })
}

// tablePaths lists the table's paths in its order.
func tablePaths(t *topology.PathTable) []topology.Path {
	paths := make([]topology.Path, t.Len())
	for i := range paths {
		paths[i] = t.At(i)
	}
	return paths
}

// deploy starts a monitor on every router, watching the segments MonitorSets
// derives from the table's paths, under PolicyTimeliness so that a watch's summaries
// keep every record's (fp, size, sinkTS) in recording order.
func deploy(t *testing.T, net *network.Network, oracle *PathOracle, paths *topology.PathTable, mode topology.MonitorMode, sampling float64) *scanEnv {
	e := &scanEnv{t: t, net: net, monitors: make(map[packet.NodeID]*Monitor), seen: make(map[*Summary]int)}
	e.rec = &Recording{Env: e, Oracle: oracle, Policy: PolicyTimeliness, Round: 100 * time.Millisecond, Sampling: sampling}
	pr, _ := topology.MonitorSets(paths, 2, mode)
	for _, id := range net.Graph().Nodes() {
		m := new(Monitor)
		e.monitors[id] = m
		m.Start(e.rec, id)
		for _, seg := range pr[id] {
			if !m.Watch(new(Watch), seg) {
				t.Fatalf("router %v not on its own segment %v", id, seg)
			}
		}
	}
	return e
}

// check feeds ev to the monitor and requires that it recorded exactly what
// the reference scan would have: the same watches, in watch order, each with
// the same (fp, size, sinkTS) appended to the same round.
func (e *scanEnv) check(m *Monitor, ev network.Event, onEvent func(network.Event)) {
	want := refOnEvent(m, ev)
	onEvent(ev)

	var got []recorded
	for _, w := range m.watches {
		for _, o := range w.open {
			tf := o.s.Timed
			for i := e.seen[o.s]; i < tf.Len(); i++ {
				got = append(got, recorded{w, tf.FPs[i], int(tf.Sizes[i]), tf.TSs[i], o.n})
			}
			e.seen[o.s] = tf.Len()
		}
	}
	e.events++
	e.records += len(want)
	if !slices.Equal(got, want) {
		e.t.Fatalf("router %v, %v of packet %v→%v flow %d via %v: recorded %v, the scan records %v",
			m.id, ev.Kind, ev.Packet.Src, ev.Packet.Dst, ev.Packet.Flow, ev.Peer, got, want)
	}
}

// meshTraffic injects count packets between each of pairs random router
// pairs, spread over the first second.
func meshTraffic(net *network.Network, rng *rand.Rand, pairs, count int, flows []packet.FlowID) {
	nodes := net.Graph().Nodes()
	for i := 0; i < pairs; i++ {
		src, dst := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		if src == dst {
			continue
		}
		flow := flows[rng.Intn(len(flows))]
		for j := 0; j < count; j++ {
			p := &packet.Packet{Dst: dst, Size: 200 + 100*(j%5), Flow: flow, Seq: uint32(j), Payload: uint64(i)}
			at := time.Duration(rng.Int63n(int64(time.Second)))
			net.Scheduler().At(at, func() { net.Inject(src, p) })
		}
	}
}

// TestDispatchMatchesScan replays every tap event of four runs through the
// route memo and through the scan it replaced.
func TestDispatchMatchesScan(t *testing.T) {
	t.Run("isp mesh", func(t *testing.T) {
		g := topology.ISP(topology.ISPSpec{Nodes: 60, PoPs: 3, Seed: 7})
		net := network.New(g, network.Options{Seed: 1, ProcessingJitter: 50 * time.Microsecond})
		// Half-rate sampling, so the sample range sits between dispatch and
		// the summary here and is absent in the other runs.
		paths := g.CSR().Paths()
		e := deploy(t, net, NewPathOracleFromPaths(tablePaths(paths)), paths, topology.ModeEnds, 0.5)
		meshTraffic(net, rand.New(rand.NewSource(1)), 150, 20, []packet.FlowID{1})
		net.Run(2 * time.Second)
		e.requireCoverage(10000, 5000)
	})

	t.Run("ecmp fabric", func(t *testing.T) {
		// The diamond with tails of pik2's TestECMPFabricDetection:
		// 0—1—{2,3}—4—5, flows hashed over the two middles.
		g := topology.NewGraph()
		var n [6]packet.NodeID
		for i := range n {
			n[i] = g.AddNode(fmt.Sprint("n", i))
		}
		attrs := topology.DefaultLinkAttrs()
		for _, l := range [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5}} {
			g.AddDuplex(n[l[0]], n[l[1]], attrs)
		}
		net := network.New(g, network.Options{Seed: 19})
		ecmp := topology.NewECMP(g, 11, 13)
		net.InstallECMP(ecmp)
		flows := []packet.FlowID{1, 2, 3, 4, 5, 6, 7, 8}
		var paths []topology.Path
		seen := make(map[string]bool)
		for _, src := range g.Nodes() {
			for _, dst := range g.Nodes() {
				for _, f := range flows {
					if p := ecmp.FlowPath(src, dst, f); src != dst && p != nil && !seen[p.String()] {
						seen[p.String()] = true
						paths = append(paths, p)
					}
				}
			}
		}
		table := topology.NewPathTable(paths)
		e := deploy(t, net, NewECMPPathOracle(ecmp), &table, topology.ModeEnds, 0)
		meshTraffic(net, rand.New(rand.NewSource(2)), 60, 10, flows)
		net.Run(2 * time.Second)
		e.requireCoverage(2000, 1000)
		var via [2]bool
		for _, f := range flows {
			via[0] = via[0] || ecmp.FlowPath(n[0], n[5], f).Contains(n[2])
			via[1] = via[1] || ecmp.FlowPath(n[0], n[5], f).Contains(n[3])
		}
		if !via[0] || !via[1] {
			t.Fatal("the flows do not split over both middles: the memo's flow key went unexercised")
		}
	})

	t.Run("oracle replaced mid-run", func(t *testing.T) {
		// Forwarding keeps following the ring's shortest paths; half-way
		// through, the oracle is replaced by one computed without the 0—1
		// link (what RefreshPaths does after a response), so pairs whose
		// prediction moved stop matching their old watches. A memo that
		// outlived its oracle would keep recording them.
		g := topology.NewGraph()
		const ring = 8
		for i := 0; i < ring; i++ {
			g.AddNode(fmt.Sprint("n", i))
		}
		for i := 0; i < ring; i++ {
			g.AddDuplex(packet.NodeID(i), packet.NodeID((i+1)%ring), topology.DefaultLinkAttrs())
		}
		net := network.New(g, network.Options{Seed: 3})
		paths := g.CSR().Paths()
		e := deploy(t, net, NewPathOracleFromPaths(tablePaths(paths)), paths, topology.ModeNodes, 0)
		cut := g.Clone()
		cut.RemoveLink(0, 1)
		cut.RemoveLink(1, 0)
		rerouted := NewPathOracleFromPaths(tablePaths(cut.CSR().Paths()))
		var before int
		net.Scheduler().At(500*time.Millisecond, func() {
			before = e.records
			e.rec.Oracle = rerouted
		})
		meshTraffic(net, rand.New(rand.NewSource(3)), 56, 40, []packet.FlowID{1})
		net.Run(2 * time.Second)
		e.requireCoverage(5000, 2000)
		if before == 0 || e.records == before {
			t.Fatalf("%d records before the oracle changed, %d after", before, e.records-before)
		}
	})

	t.Run("diverted packet", func(t *testing.T) {
		// Router 1 of the line 0-1-2-3-4 is shown packets of the pair 0→4
		// leaving toward 0 and arriving from 2 — against the prediction —
		// before and after the pair's entry is in the memo, and then one whose
		// forged addresses lie outside the path table.
		g := topology.Line(5)
		net := network.New(g, network.Options{Seed: 4})
		paths := g.CSR().Paths()
		e := deploy(t, net, NewPathOracleFromPaths(tablePaths(paths)), paths, topology.ModeNodes, 0)
		m := e.monitors[1]
		p := &packet.Packet{Src: 0, Dst: 4, Size: 500}
		forged := &packet.Packet{Src: -1, Dst: math.MaxInt32, Size: 500}
		for i, ev := range []network.Event{
			{Kind: network.EvDequeue, Peer: 0, Packet: p},
			{Kind: network.EvReceive, Peer: 2, Packet: p},
			{Kind: network.EvDequeue, Peer: 2, Packet: p}, // as predicted: fills and records
			{Kind: network.EvReceive, Peer: 0, Packet: p},
			{Kind: network.EvDequeue, Peer: 0, Packet: p},
			{Kind: network.EvReceive, Peer: 2, Packet: p},
			{Kind: network.EvDequeue, Peer: 3, Packet: p}, // not a neighbour on any watch
			{Kind: network.EvDequeue, Peer: 2, Packet: forged},
		} {
			ev.Router, ev.Time = 1, time.Duration(i)*time.Millisecond
			e.check(m, ev, m.onEvent)
		}
		if e.records == 0 {
			t.Fatal("the predicted hop recorded nothing")
		}
	})
}

func (e *scanEnv) requireCoverage(events, records int) {
	e.t.Helper()
	if e.events < events || e.records < records {
		e.t.Fatalf("compared %d events and %d records, want at least %d and %d", e.events, e.records, events, records)
	}
}
