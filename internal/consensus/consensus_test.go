package consensus

import (
	"testing"
	"time"

	"routerwatch/internal/attack"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

func ringNet(n int) *network.Network {
	g := topology.NewGraph()
	attrs := topology.DefaultLinkAttrs()
	ids := make([]packet.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddNode(string(rune('a' + i)))
	}
	for i := 0; i < n; i++ {
		g.AddDuplex(ids[i], ids[(i+1)%n], attrs)
	}
	return network.New(g, network.Options{Seed: 1})
}

func TestFloodReachesEveryone(t *testing.T) {
	net := ringNet(6)
	s := NewService(net)
	got := make(map[packet.NodeID][]Msg)
	for _, r := range net.Routers() {
		id := r.ID()
		s.Subscribe(id, "t", func(m Msg) { got[id] = append(got[id], m) })
	}
	s.Flood(2, "t", "round-1", []byte("hello"))
	net.Run(time.Second)

	for _, r := range net.Routers() {
		msgs := got[r.ID()]
		if len(msgs) != 1 {
			t.Fatalf("router %v received %d messages, want 1", r.ID(), len(msgs))
		}
		if string(msgs[0].Payload) != "hello" || msgs[0].Origin != 2 {
			t.Fatalf("router %v got %+v", r.ID(), msgs[0])
		}
	}
}

func TestFloodSurvivesProtocolFaultyRelay(t *testing.T) {
	// Ring: node 1 refuses to relay, but flooding around the other side
	// still reaches everyone (good-path condition).
	net := ringNet(6)
	net.Router(1).SetBehavior(&attack.ControlDropper{})
	s := NewService(net)
	reached := make(map[packet.NodeID]bool)
	for _, r := range net.Routers() {
		id := r.ID()
		s.Subscribe(id, "t", func(Msg) { reached[id] = true })
	}
	s.Flood(0, "t", "i", []byte("x"))
	net.Run(time.Second)

	for _, r := range net.Routers() {
		if r.ID() == 1 {
			continue // the faulty relay drops its own delivery too; fine
		}
		if !reached[r.ID()] {
			t.Fatalf("router %v not reached despite path diversity", r.ID())
		}
	}
}

func TestFloodDedup(t *testing.T) {
	net := ringNet(4)
	s := NewService(net)
	count := 0
	s.Subscribe(3, "t", func(Msg) { count++ })
	s.Flood(0, "t", "i", []byte("x"))
	s.Flood(0, "t", "i", []byte("x")) // identical re-flood
	net.Run(time.Second)
	if count != 1 {
		t.Fatalf("duplicate flood delivered %d times", count)
	}
}

func TestEquivocationPropagatesBothValues(t *testing.T) {
	net := ringNet(5)
	s := NewService(net)
	var got []Msg
	s.Subscribe(2, "t", func(m Msg) { got = append(got, m) })
	s.Flood(0, "t", "i", []byte("v1"))
	s.Flood(0, "t", "i", []byte("v2"))
	net.Run(time.Second)
	if len(got) != 2 {
		t.Fatalf("received %d messages, want both equivocating values", len(got))
	}
	if got[0].Origin != 0 || got[1].Origin != 0 || string(got[0].Payload) == string(got[1].Payload) {
		t.Fatalf("want two conflicting values signed by origin 0, got %q and %q", got[0].Payload, got[1].Payload)
	}
}

func TestForgedFloodRejected(t *testing.T) {
	net := ringNet(4)
	s := NewService(net)
	reached := false
	s.Subscribe(2, "t", func(Msg) { reached = true })
	// Node 1 forges a message claiming origin 0, signing with its own key.
	body := SignedBody(0, "t", "i", []byte("forged"))
	sig := net.Auth().Sign(1, body)
	sig.Signer = 0
	msg := &Msg{Origin: 0, Topic: "t", Instance: "i", Payload: []byte("forged"), Sig: sig}
	net.SendControlDirect(1, 2, KindFlood, msg)
	net.SendControlDirect(1, 2, KindFlood, (*Msg)(nil)) // dropped, not dereferenced
	net.Run(time.Second)
	if reached {
		t.Fatal("forged flood message delivered")
	}
}

// TestFloodRelayAllocFree: a flood's relays allocate nothing — every router
// that accepts it forwards the one Msg Flood signed, each hop in a pooled
// envelope — so a flood over Line(4) costs what originating one costs at a
// lone router.
func TestFloodRelayAllocFree(t *testing.T) {
	perFlood := func(routers int) float64 {
		net := network.New(topology.Line(routers), network.Options{Seed: 1})
		s := NewService(net)
		delivered := 0
		for _, r := range net.Routers() {
			s.Subscribe(r.ID(), "t", func(Msg) { delivered++ })
		}
		const runs = 200
		payloads := make([][]byte, runs+2)
		for i := range payloads {
			payloads[i] = []byte{byte(i), byte(i >> 8)}
		}
		i := 0
		flood := func() {
			s.Flood(0, "t", "i", payloads[i])
			i++
			net.Run(net.Now() + time.Second)
		}
		flood() // warm: envelope pool, event pool, heap array
		n := testing.AllocsPerRun(runs, flood)
		if want := routers * (runs + 2); delivered != want {
			t.Fatalf("Line(%d): %d deliveries, want %d", routers, delivered, want)
		}
		return n
	}
	if alone, line := perFlood(1), perFlood(4); line != alone {
		t.Errorf("a flood over Line(4) allocates %v, a lone router's %v: its relays allocate %v per flood, want 0",
			line, alone, line-alone)
	}
}
