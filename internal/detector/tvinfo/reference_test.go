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
	"routerwatch/internal/sim"
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

// OnSegment, refOnEvent and refRecord are the per-watch scan that
// Monitor.onEvent and Monitor.record did before the route memo, kept as the
// reference TestDispatchMatchesScan compares the memo against: walk every
// watch of the router, compare the event's peer with the watch's neighbour
// on the segment, ask the path table whether the packet's predicted path
// follows the segment here, then fingerprint, sample and bin. refRecord
// returns what the scan wrote into w.Summary(round). OnSegment is the
// definition of "the packet traverses π through this router" that
// Monitor.fill's window probes must agree with; nothing outside the tests
// calls it.

// OnSegment reports whether a packet the table routes src→dst traverses seg
// with the segment aligned so that seg[segPos] sits at the packet's position
// of router at.
func OnSegment(paths *topology.PathTable, src, dst packet.NodeID, seg topology.Segment, at packet.NodeID, segPos int) bool {
	path := paths.Path(src, dst)
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
	if !OnSegment(m.rec.Oracle, p.Src, p.Dst, w.Seg, m.id, w.Pos) {
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
	// events and records count what the comparison covered, and clears how
	// often a monitor's route memo was emptied under it.
	events, records, clears int
}

func (e *scanEnv) Graph() *topology.Graph           { return e.net.Graph() }
func (e *scanEnv) Auth() *auth.Authority            { return e.net.Auth() }
func (e *scanEnv) Hasher() packet.Hasher            { return e.net.Hasher() }
func (e *scanEnv) Now() time.Duration               { return e.net.Now() }
func (e *scanEnv) After(d time.Duration, fn func()) { e.net.Scheduler().After(d, fn) }
func (e *scanEnv) Every(d time.Duration, fn func()) *sim.Ticker {
	return e.net.Scheduler().NewTicker(d, fn)
}
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
// derives from the table's paths and predicting packet paths from the same
// table, under PolicyTimeliness so that a watch's summaries keep every
// record's (fp, size, sinkTS) in recording order.
func deploy(t *testing.T, net *network.Network, paths *topology.PathTable, mode topology.MonitorMode, sampling float64) *scanEnv {
	e := &scanEnv{t: t, net: net, monitors: make(map[packet.NodeID]*Monitor), seen: make(map[*Summary]int)}
	segs := topology.MonitorSets(paths, 2, mode)
	e.rec = &Recording{Env: e, Oracle: paths, Segments: segs, Policy: PolicyTimeliness, Round: 100 * time.Millisecond, Sampling: sampling}
	for _, id := range net.Graph().Nodes() {
		m := new(Monitor)
		e.monitors[id] = m
		m.Start(e.rec, id)
		for _, sid := range segs.Monitored(id) {
			if !m.Watch(new(Watch), sid) {
				t.Fatalf("router %v not on its own segment %v", id, segs.Segment(sid))
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
	memo := len(m.routes)
	onEvent(ev)
	if len(m.routes) < memo {
		e.clears++
	}

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
		e.t.Fatalf("router %v, %v of packet %v→%v via %v: recorded %v, the scan records %v",
			m.id, ev.Kind, ev.Packet.Src, ev.Packet.Dst, ev.Peer, got, want)
	}
}

// meshTraffic injects count packets between each of pairs random router
// pairs, spread over the first second.
func meshTraffic(net *network.Network, rng *rand.Rand, pairs, count int) {
	nodes := net.Graph().Nodes()
	for i := 0; i < pairs; i++ {
		src, dst := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		if src == dst {
			continue
		}
		for j := 0; j < count; j++ {
			inject(net, rng, src, &packet.Packet{Dst: dst, Size: 200 + 100*(j%5), Seq: uint32(j), Payload: uint64(i)})
		}
	}
}

// inject schedules p's injection at src at a random instant of the first
// second.
func inject(net *network.Network, rng *rand.Rand, src packet.NodeID, p *packet.Packet) {
	at := time.Duration(rng.Int63n(int64(time.Second)))
	net.Scheduler().At(at, func() { net.Inject(src, p) })
}

// TestDispatchMatchesScan replays every tap event of six runs through the
// route memo and through the scan it replaced.
func TestDispatchMatchesScan(t *testing.T) {
	t.Run("isp mesh", func(t *testing.T) {
		g := topology.ISP(topology.ISPSpec{Nodes: 60, PoPs: 3, Seed: 7})
		net := network.New(g, network.Options{Seed: 1, ProcessingJitter: 50 * time.Microsecond})
		// Half-rate sampling, so the sample range sits between dispatch and
		// the summary here and is absent in the other runs.
		e := deploy(t, net, g.CSR().Paths(), topology.ModeEnds, 0.5)
		meshTraffic(net, rand.New(rand.NewSource(1)), 150, 20)
		net.Run(2 * time.Second)
		e.requireCoverage(10000, 5000)
	})

	t.Run("one-shot pairs", func(t *testing.T) {
		// Every ordered pair carries one packet, as in isp1000: a router
		// meets each pair it carries once per direction, so nearly every
		// event fills the memo, and the core routers carry more than
		// maxRoutes pairs, so their memos fill up and are dropped mid-run.
		g := topology.ISP(topology.ISPSpec{Nodes: 80, PoPs: 4, Seed: 11})
		net := network.New(g, network.Options{Seed: 5})
		e := deploy(t, net, g.CSR().Paths(), topology.ModeEnds, 0)
		rng := rand.New(rand.NewSource(5))
		for _, src := range g.Nodes() {
			for _, dst := range g.Nodes() {
				if src != dst {
					inject(net, rng, src, &packet.Packet{Dst: dst, Size: 500, Payload: uint64(src)})
				}
			}
		}
		net.Run(2 * time.Second)
		e.requireCoverage(80000, 50000)
		if e.clears == 0 {
			t.Fatalf("no route memo reached its bound of %d pairs", maxRoutes)
		}
	})

	t.Run("oracle replaced mid-run", func(t *testing.T) {
		// Forwarding keeps following the ring's shortest paths; half-way
		// through, the path table is replaced by one computed without the
		// 0—1 link (what RefreshPaths does after a response), so pairs whose
		// prediction moved stop matching their old watches. A memo that
		// outlived its table would keep recording them.
		g := topology.NewGraph()
		const ring = 8
		for i := 0; i < ring; i++ {
			g.AddNode(fmt.Sprint("n", i))
		}
		for i := 0; i < ring; i++ {
			g.AddDuplex(packet.NodeID(i), packet.NodeID((i+1)%ring), topology.DefaultLinkAttrs())
		}
		net := network.New(g, network.Options{Seed: 3})
		e := deploy(t, net, g.CSR().Paths(), topology.ModeNodes, 0)
		cut := g.Clone()
		cut.RemoveLink(0, 1)
		cut.RemoveLink(1, 0)
		var before int
		net.Scheduler().At(500*time.Millisecond, func() {
			before = e.records
			e.rec.Oracle = cut.CSR().Paths()
		})
		meshTraffic(net, rand.New(rand.NewSource(3)), 56, 40)
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
		e := deploy(t, net, g.CSR().Paths(), topology.ModeNodes, 0)
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

	t.Run("revisiting walk", func(t *testing.T) {
		// A walk may visit a router twice (an edge-kernel walk after a
		// response does): the table's path 0→5 is ⟨0,1,2,3,1,4,5⟩. A
		// segment is aligned at the router's first occurrence on the path,
		// so at router 1 the pair's packets follow ⟨1,2,3⟩ and ⟨1,2,3,1⟩
		// toward 2, and never ⟨2,3,1⟩ or ⟨1,4,5⟩, the windows that end and
		// start at its second visit: the receive from 3 and the dequeue
		// toward 4 record nothing.
		g := topology.NewGraph()
		for i := 0; i < 6; i++ {
			g.AddNode(fmt.Sprint("n", i))
		}
		for _, l := range [][2]packet.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 1}, {1, 4}, {4, 5}} {
			g.AddDuplex(l[0], l[1], topology.DefaultLinkAttrs())
		}
		walk := topology.NewPathTable([]topology.Path{{0, 1, 2, 3, 1, 4, 5}})
		net := network.New(g, network.Options{Seed: 6})
		e := deploy(t, net, &walk, topology.ModeEnds, 0)
		m := e.monitors[1]
		p := &packet.Packet{Src: 0, Dst: 5, Size: 500}
		for i, ev := range []network.Event{
			{Kind: network.EvReceive, Peer: 0, Packet: p},
			{Kind: network.EvDequeue, Peer: 2, Packet: p}, // first visit: records
			{Kind: network.EvReceive, Peer: 3, Packet: p},
			{Kind: network.EvDequeue, Peer: 4, Packet: p}, // second visit: nothing
		} {
			ev.Router, ev.Time = 1, time.Duration(i)*time.Millisecond
			e.check(m, ev, m.onEvent)
		}
		var watched, got []string
		for _, w := range m.watches {
			watched = append(watched, fmt.Sprint(w.Seg))
			if w.Recorded(0) != nil {
				got = append(got, fmt.Sprint(w.Seg))
			}
		}
		if want := []string{"<r1,r2,r3>", "<r1,r2,r3,r1>", "<r1,r4,r5>", "<r2,r3,r1>"}; !slices.Equal(watched, want) {
			t.Fatalf("router 1 watches %v, want %v", watched, want)
		}
		if want := []string{"<r1,r2,r3>", "<r1,r2,r3,r1>"}; !slices.Equal(got, want) {
			t.Fatalf("router 1 recorded into %v, want %v", got, want)
		}
	})
}

func (e *scanEnv) requireCoverage(events, records int) {
	e.t.Helper()
	if e.events < events || e.records < records {
		e.t.Fatalf("compared %d events and %d records, want at least %d and %d", e.events, e.records, events, records)
	}
}
