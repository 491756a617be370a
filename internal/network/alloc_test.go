package network

import (
	"math/rand"
	"testing"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/queue"
	"routerwatch/internal/topology"
)

// TestForwardAllocFree guards the zero-allocation data path: after warmup
// (pools primed, heap and queue backing arrays grown), forwarding a packet
// across a router — receive, route, queue, transmit, deliver — allocates
// nothing. Neither does a burst that queues behind a busy line: the drain
// event is a callback bound once per network. Nor, in steady state, does
// the packet itself when it comes from NewPacket: delivery hands it back
// and the next send reuses it.
func TestForwardAllocFree(t *testing.T) {
	net := lineNet(3, Options{Seed: 1})
	delivered := 0
	net.Router(2).SetLocalHandler(func(p *packet.Packet) { delivered++ })

	p := &packet.Packet{Dst: 2, Size: 1000, Flow: 1}
	send := func() {
		p.TTL = 64
		net.Inject(0, p)
		net.Run(net.Now() + time.Second)
	}
	send() // warm: event pool, heap array, queue rings

	const runs = 100
	if n := testing.AllocsPerRun(runs, send); n != 0 {
		t.Errorf("one-hop forward allocates %v per packet, want 0", n)
	}
	if delivered < runs {
		t.Fatalf("delivered %d packets, want at least %d", delivered, runs)
	}

	pooled := func() {
		p := net.NewPacket()
		p.Dst, p.Size, p.Flow = 2, 1000, 1
		net.Inject(0, p)
		net.Run(net.Now() + time.Second)
	}
	pooled()
	delivered = 0
	if n := testing.AllocsPerRun(runs, pooled); n != 0 {
		t.Errorf("inject → deliver of a NewPacket allocates %v per packet, want 0", n)
	}
	if delivered < runs {
		t.Fatalf("delivered %d pooled packets, want at least %d", delivered, runs)
	}

	var burst [8]packet.Packet
	sendBurst := func() {
		for k := range burst {
			burst[k] = packet.Packet{Dst: 2, Size: 1000, Flow: 1}
			net.Inject(0, &burst[k])
		}
		net.Run(net.Now() + time.Second)
	}
	sendBurst()
	delivered = 0
	if n := testing.AllocsPerRun(runs, sendBurst); n != 0 {
		t.Errorf("queued burst allocates %v per burst of %d, want 0", n, len(burst))
	}
	if delivered < runs*len(burst) {
		t.Fatalf("delivered %d burst packets, want at least %d", delivered, runs*len(burst))
	}
}

// TestControlAllocFree guards the control plane's relay: after warmup, a
// control message costs no allocation at any hop — the network carries it
// in a pooled envelope it takes back on delivery — whether it crosses one
// link (SendControlDirect, the flood's fan-out) or names a 3-hop path
// (SendControl, Πk+2's exchange through the segment).
func TestControlAllocFree(t *testing.T) {
	net := lineNet(4, Options{Seed: 1})
	delivered := 0
	for _, r := range net.Routers() {
		r.HandleControl("x", func(*ControlMessage) { delivered++ })
	}
	payload := &packet.Packet{}
	path := topology.Path{0, 1, 2, 3}
	for _, tc := range []struct {
		name string
		send func()
	}{
		{"direct", func() { net.SendControlDirect(0, 1, "x", payload) }},
		{"3-hop", func() { net.SendControl(ControlMessage{From: 0, To: 3, Kind: "x", Payload: payload, Path: path}) }},
	} {
		send := func() {
			tc.send()
			net.Run(net.Now() + time.Second)
		}
		send() // warm: envelope pool, event pool, heap array
		delivered = 0
		const runs = 100
		if n := testing.AllocsPerRun(runs, send); n != 0 {
			t.Errorf("%s control message allocates %v per message, want 0", tc.name, n)
		}
		if delivered < runs {
			t.Fatalf("%s: delivered %d messages, want at least %d", tc.name, delivered, runs)
		}
	}
}

// TestRouterAllocatesPerRouter: building a router costs a fixed number of
// allocations whatever its degree — its interfaces are one slice, found
// by a scan of its neighbours, the drain callback is the network's, and
// a stream's processing horizon sits on the interface that sends it — so
// with a queue factory that allocates nothing, a router of degree 8 costs
// what one of degree 2 does: at most 7 (the router, its RNG's two, its
// three bound callbacks and its interface slice). Each link once cost an
// iface, a drain closure and share of two maps.
func TestRouterAllocatesPerRouter(t *testing.T) {
	g := topology.Line(10)
	attrs := topology.LinkAttrs{Bandwidth: 1e9, Delay: time.Millisecond, QueueLimit: 64}
	for _, nb := range []packet.NodeID{0, 1, 7, 8, 9, 2} {
		g.AddDuplex(5, nb, attrs)
	}
	q := queue.NewDropTail(64)
	net := New(g, Options{Seed: 1, QueueFactory: func(topology.Link, *rand.Rand) queue.Discipline { return q }})
	if d0, d5 := len(g.Neighbors(0)), len(g.Neighbors(5)); d0 != 2 || d5 != 8 {
		t.Fatalf("routers 0 and 5 have degrees %d and %d, want 2 and 8", d0, d5)
	}
	leaf := testing.AllocsPerRun(20, func() { newRouter(net, 0) })
	hub := testing.AllocsPerRun(20, func() { newRouter(net, 5) })
	if hub != leaf || hub > 7 {
		t.Errorf("a router of degree 8 allocates %v objects and one of degree 2 %v, want the same, at most 7", hub, leaf)
	}
}
