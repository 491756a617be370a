package network

import (
	"math"
	"testing"
	"time"

	"routerwatch/internal/auth"
	"routerwatch/internal/packet"
	"routerwatch/internal/queue"
	"routerwatch/internal/sim"
	"routerwatch/internal/topology"
)

func lineNet(n int, opts Options) *Network {
	return New(topology.Line(n), opts)
}

func TestDeliveryAcrossLine(t *testing.T) {
	net := lineNet(4, Options{Seed: 1})
	var delivered []*packet.Packet
	net.Router(3).SetLocalHandler(func(p *packet.Packet) { delivered = append(delivered, p) })

	p := &packet.Packet{Dst: 3, Size: 1000, Flow: 7}
	net.Inject(0, p)
	net.Run(time.Second)

	if len(delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(delivered))
	}
	if delivered[0].Flow != 7 {
		t.Fatalf("wrong packet delivered: %+v", delivered[0])
	}
	// TTL decremented at routers 1 and 2 (transit), not at source or sink.
	if delivered[0].TTL != 64-2 {
		t.Fatalf("TTL = %d, want 62", delivered[0].TTL)
	}
}

func TestEndToEndLatency(t *testing.T) {
	// Line with known attrs: default 100 Mbit/s, 2 ms delay per link.
	net := lineNet(3, Options{Seed: 1})
	var at time.Duration
	net.Router(2).SetLocalHandler(func(p *packet.Packet) { at = net.Now() })

	p := &packet.Packet{Dst: 2, Size: 1250} // 1250 B @ 100 Mbit/s = 100 µs
	net.Inject(0, p)
	net.Run(time.Second)

	// Two hops: 2 × (tx 100 µs + prop 2 ms) = 4.2 ms, no jitter configured.
	want := 2 * (100*time.Microsecond + 2*time.Millisecond)
	if at != want {
		t.Fatalf("latency = %v, want %v", at, want)
	}
}

func TestLocalDeliveryAtSource(t *testing.T) {
	net := lineNet(2, Options{Seed: 1})
	got := false
	net.Router(0).SetLocalHandler(func(p *packet.Packet) { got = true })
	net.Inject(0, &packet.Packet{Dst: 0, Size: 100})
	net.Run(time.Second)
	if !got {
		t.Fatal("self-addressed packet not delivered")
	}
}

func TestTapEventSequence(t *testing.T) {
	net := lineNet(3, Options{Seed: 1})
	var kinds []EventKind
	net.Router(1).AddTap(func(ev Event) { kinds = append(kinds, ev.Kind) })

	net.Inject(0, &packet.Packet{Dst: 2, Size: 500})
	net.Run(time.Second)

	want := []EventKind{EvReceive, EvEnqueue, EvDequeue}
	if len(kinds) != len(want) {
		t.Fatalf("events %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events %v, want %v", kinds, want)
		}
	}
}

func TestTTLExpiry(t *testing.T) {
	net := lineNet(5, Options{Seed: 1})
	// TTL 2 expires at r3: r1 decrements 2→1, r2 sees 1 and drops.
	ttlDrops := 0
	for _, r := range net.Routers() {
		r.AddTap(func(ev Event) {
			if ev.Kind == EvDrop && ev.Reason == queue.DropTTL {
				ttlDrops++
			}
		})
	}
	delivered := false
	net.Router(4).SetLocalHandler(func(*packet.Packet) { delivered = true })
	net.Inject(0, &packet.Packet{Dst: 4, Size: 100, TTL: 2})
	net.Run(2 * time.Second)
	if delivered {
		t.Fatal("TTL-expired packet was delivered")
	}
	if ttlDrops != 1 {
		t.Fatalf("ttl drops = %d, want 1", ttlDrops)
	}
}

func TestCongestionDropsAtBottleneck(t *testing.T) {
	// Saturate a slow link: many packets injected at once must overflow
	// the 64 KiB default buffer.
	g := topology.NewGraph()
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddDuplex(a, b, topology.LinkAttrs{Bandwidth: 1e6, Delay: time.Millisecond, QueueLimit: 10_000, Cost: 1})
	net := New(g, Options{Seed: 1})

	counters := NewCounters()
	net.Router(a).AddTap(counters.Tap())
	deliveredBytes := 0
	net.Router(b).SetLocalHandler(func(p *packet.Packet) { deliveredBytes += p.Size })

	for i := 0; i < 50; i++ {
		net.Inject(a, &packet.Packet{Dst: b, Size: 1000})
	}
	net.Run(10 * time.Second)

	if counters.Drops[queue.DropCongestion] == 0 {
		t.Fatal("no congestion drops despite 50 kB burst into 10 kB buffer")
	}
	// Conservation: enqueued + dropped = injected.
	if counters.Enqueued+counters.TotalDrops() != 50 {
		t.Fatalf("enqueued %d + drops %d != injected 50", counters.Enqueued, counters.TotalDrops())
	}
	if deliveredBytes != counters.Enqueued*1000 {
		t.Fatalf("delivered %d bytes, want %d", deliveredBytes, counters.Enqueued*1000)
	}
}

func TestProcessingJitterBounded(t *testing.T) {
	net := lineNet(3, Options{Seed: 7, ProcessingJitter: 500 * time.Microsecond})
	var recvAt, enqAt []time.Duration
	net.Router(1).AddTap(func(ev Event) {
		switch ev.Kind {
		case EvReceive:
			recvAt = append(recvAt, ev.Time)
		case EvEnqueue:
			enqAt = append(enqAt, ev.Time)
		}
	})
	for i := 0; i < 100; i++ {
		net.Inject(0, &packet.Packet{Dst: 2, Size: 100})
		net.Run(net.Now() + 10*time.Millisecond)
	}
	if len(recvAt) != len(enqAt) || len(recvAt) != 100 {
		t.Fatalf("got %d receives, %d enqueues", len(recvAt), len(enqAt))
	}
	sawNonZero := false
	for i := range recvAt {
		d := enqAt[i] - recvAt[i]
		if d < 0 || d > 500*time.Microsecond {
			t.Fatalf("jitter %v outside [0, 500µs]", d)
		}
		if d > 0 {
			sawNonZero = true
		}
	}
	if !sawNonZero {
		t.Fatal("jitter never applied")
	}
}

type dropAll struct{}

func (dropAll) OnForward(*RouterView, *packet.Packet, packet.NodeID) Verdict {
	return Verdict{Action: ActDrop}
}
func (dropAll) OnControl(*RouterView, *ControlMessage) ControlVerdict { return CtrlForward }

func TestMaliciousDropIsSilent(t *testing.T) {
	net := lineNet(3, Options{Seed: 1})
	net.Router(1).SetBehavior(dropAll{})
	counters := NewCounters()
	net.Router(1).AddTap(counters.Tap())
	delivered := 0
	net.Router(2).SetLocalHandler(func(*packet.Packet) { delivered++ })

	for i := 0; i < 10; i++ {
		net.Inject(0, &packet.Packet{Dst: 2, Size: 100})
	}
	net.Run(time.Second)

	if delivered != 0 {
		t.Fatalf("attacker forwarded %d packets", delivered)
	}
	// The compromised router received the packets but emitted no drop or
	// enqueue events: it hides its action.
	if counters.Received != 10 {
		t.Fatalf("received %d, want 10", counters.Received)
	}
	if counters.Enqueued != 0 || counters.TotalDrops() != 0 {
		t.Fatalf("malicious drop left a trace: %+v", counters)
	}
}

type divertBehavior struct{ to packet.NodeID }

func (d divertBehavior) OnForward(_ *RouterView, _ *packet.Packet, _ packet.NodeID) Verdict {
	return Verdict{Action: ActDivert, NewNext: d.to}
}
func (divertBehavior) OnControl(*RouterView, *ControlMessage) ControlVerdict { return CtrlForward }

func TestDivertedPacketTakesDetour(t *testing.T) {
	// Triangle a-b-c plus path a-b direct: divert at a sends traffic to c.
	g := topology.NewGraph()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	attrs := topology.DefaultLinkAttrs()
	g.AddDuplex(a, b, attrs)
	g.AddDuplex(a, c, attrs)
	g.AddDuplex(c, b, attrs)
	net := New(g, Options{Seed: 1})
	net.Router(a).SetBehavior(divertBehavior{to: c})

	sawAtC := false
	net.Router(c).AddTap(func(ev Event) {
		if ev.Kind == EvReceive {
			sawAtC = true
		}
	})
	delivered := false
	net.Router(b).SetLocalHandler(func(*packet.Packet) { delivered = true })

	net.Inject(a, &packet.Packet{Dst: b, Size: 100})
	net.Run(time.Second)

	if !sawAtC {
		t.Fatal("diverted packet never passed through c")
	}
	if !delivered {
		t.Fatal("diverted packet was not ultimately delivered")
	}
}

func TestControlMessageDelivery(t *testing.T) {
	net := lineNet(4, Options{Seed: 1})
	var got *ControlMessage
	net.Router(3).HandleControl("summary", func(m *ControlMessage) { got = m })
	net.SendControl(&ControlMessage{From: 0, To: 3, Kind: "summary", Payload: 42})
	net.Run(time.Second)
	if got == nil {
		t.Fatal("control message not delivered")
	}
	if got.Payload.(int) != 42 || got.Kind != "summary" {
		t.Fatalf("wrong message: %+v", got)
	}
}

type ctrlDropper struct{}

func (ctrlDropper) OnForward(_ *RouterView, _ *packet.Packet, _ packet.NodeID) Verdict {
	return Verdict{Action: ActForward}
}
func (ctrlDropper) OnControl(*RouterView, *ControlMessage) ControlVerdict { return CtrlDrop }

func TestProtocolFaultyRouterDropsControl(t *testing.T) {
	net := lineNet(4, Options{Seed: 1})
	net.Router(2).SetBehavior(ctrlDropper{})
	delivered := false
	net.Router(3).HandleControl("summary", func(*ControlMessage) { delivered = true })
	net.SendControl(&ControlMessage{From: 0, To: 3, Kind: "summary"})
	net.Run(time.Second)
	if delivered {
		t.Fatal("control message passed a protocol-faulty router")
	}
}

func TestControlExplicitPath(t *testing.T) {
	// Triangle: send control 0→2 pinned through 1 even though a direct
	// link exists.
	g := topology.NewGraph()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	attrs := topology.DefaultLinkAttrs()
	g.AddDuplex(a, b, attrs)
	g.AddDuplex(b, c, attrs)
	g.AddDuplex(a, c, attrs)
	net := New(g, Options{Seed: 1})
	net.Router(b).SetBehavior(ctrlDropper{})
	delivered := false
	net.Router(c).HandleControl("x", func(*ControlMessage) { delivered = true })
	net.SendControl(&ControlMessage{From: a, To: c, Kind: "x", Path: topology.Path{a, b, c}})
	net.Run(time.Second)
	if delivered {
		t.Fatal("pinned path ignored: message should have died at b")
	}
	net.SendControl(&ControlMessage{From: a, To: c, Kind: "x"}) // default path is direct
	net.Run(2 * time.Second)
	if !delivered {
		t.Fatal("direct control message lost")
	}
}

func TestSendControlDirectRequiresAdjacency(t *testing.T) {
	net := lineNet(3, Options{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("non-adjacent SendControlDirect did not panic")
		}
	}()
	net.SendControlDirect(0, 2, "x", nil, auth.Signature{})
}

func TestFlowConservationAcrossRouter(t *testing.T) {
	// The WATCHERS invariant: what enters a correct router leaves it.
	net := lineNet(3, Options{Seed: 3, ProcessingJitter: 100 * time.Microsecond})
	c := NewCounters()
	net.Router(1).AddTap(c.Tap())
	for i := 0; i < 200; i++ {
		net.Inject(0, &packet.Packet{Dst: 2, Size: 200})
		net.Run(net.Now() + time.Millisecond)
	}
	net.Run(net.Now() + time.Second)
	if c.Received != 200 || c.Dequeued != 200 {
		t.Fatalf("conservation violated at correct router: in %d out %d drops %d",
			c.Received, c.Dequeued, c.TotalDrops())
	}
}

// Property: network-wide conservation — on a correct network every
// injected packet is eventually delivered or dropped with a reason; none
// vanish.
func TestNetworkWideConservationProperty(t *testing.T) {
	for trial := int64(0); trial < 5; trial++ {
		g := topology.Generate(topology.GeneratorSpec{
			Name: "c", Nodes: 12, Links: 20, MaxDegree: 6, Seed: trial + 1,
		})
		net := New(g, Options{Seed: trial, ProcessingJitter: 200 * time.Microsecond})
		delivered := 0
		drops := 0
		for _, r := range net.Routers() {
			id := r.ID()
			r.SetLocalHandler(func(*packet.Packet) { delivered++ })
			r.AddTap(func(ev Event) {
				if ev.Kind == EvDrop {
					drops++
				}
				_ = id
			})
		}
		rng := sim.NewRNG(trial + 77)
		injected := 0
		for i := 0; i < 2000; i++ {
			src := packet.NodeID(rng.Intn(g.NumNodes()))
			dst := packet.NodeID(rng.Intn(g.NumNodes()))
			if src == dst {
				continue
			}
			injected++
			i, s2, d2 := i, src, dst
			net.Scheduler().At(time.Duration(i)*200*time.Microsecond+time.Microsecond, func() {
				net.Inject(s2, &packet.Packet{Dst: d2, Size: 400, Flow: 9, Seq: uint32(i)})
			})
		}
		net.Run(10 * time.Second)
		if delivered+drops != injected {
			t.Fatalf("trial %d: injected %d != delivered %d + dropped %d",
				trial, injected, delivered, drops)
		}
	}
}

// The static forwarders must send every (src, dst) to the second node of
// the deterministic shortest path, and treat an unreachable or out-of-range
// destination as unroutable.
func TestInstallShortestPathsMatchesTreePaths(t *testing.T) {
	g := topology.ISP(topology.ISPSpec{Nodes: 96, PoPs: 4, Seed: 11})
	island := g.AddNode("island")
	net := New(g, Options{Seed: 1})
	for _, src := range g.Nodes() {
		parent, _ := g.ShortestPathTree(src)
		fwd := net.Router(src).forwarder
		for _, dst := range append(g.Nodes(), -1, packet.NodeID(g.NumNodes())) {
			want := packet.NodeID(-1)
			if p := topology.PathBetween(parent, src, dst); len(p) >= 2 {
				want = p[1]
			}
			if nh, ok := fwd(&packet.Packet{Dst: dst}, src); nh != want || ok != (want >= 0) {
				t.Fatalf("%v→%v: next hop %v/%v, want %v", src, dst, nh, ok, want)
			}
		}
	}
	if nh, ok := net.Router(0).forwarder(&packet.Packet{Dst: island}, 0); ok {
		t.Fatalf("route to a disconnected router: %v", nh)
	}
}

// The lazy static tables must give the next hop the eager tables gave for
// every (router, destination), forged destinations included, and must keep
// the topology of install time: a link removed between New and the first
// packet changes no answer.
func TestStaticForwardingMatchesEager(t *testing.T) {
	graphs := []struct {
		name string
		g    func() *topology.Graph
	}{
		{"isp100", func() *topology.Graph { return topology.ISP(topology.ISPSpec{Nodes: 100, PoPs: 4, Seed: 3}) }},
		{"abilene", topology.Abilene},
		{"line", func() *topology.Graph { return topology.Line(7) }},
	}
	for _, tc := range graphs {
		for _, cut := range []bool{false, true} {
			name := tc.name
			if cut {
				name += "/remove-link"
			}
			t.Run(name, func(t *testing.T) {
				g := tc.g()
				lazy := New(g, Options{Seed: 1})
				eager := New(g, Options{Seed: 1})
				eager.installShortestPathsEager()
				if cut {
					// Cut the first hop of router 0's route to the far end.
					far := packet.NodeID(g.NumNodes() - 1)
					nh, _ := eager.Router(0).forwarder(&packet.Packet{Dst: far}, 0)
					g.RemoveLink(0, nh)
					g.RemoveLink(nh, 0)
				}
				dsts := append(g.Nodes(), -1, packet.NodeID(g.NumNodes()), math.MaxInt32)
				for _, src := range g.Nodes() {
					for _, dst := range dsts {
						p := &packet.Packet{Dst: dst}
						got, gotOK := lazy.Router(src).forwarder(p, src)
						want, wantOK := eager.Router(src).forwarder(p, src)
						if got != want || gotOK != wantOK {
							t.Fatalf("%v→%v: next hop %v/%v, eager %v/%v", src, dst, got, gotOK, want, wantOK)
						}
					}
				}
			})
		}
	}
}
