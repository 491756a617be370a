package network

import (
	"reflect"
	"testing"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/queue"
	"routerwatch/internal/topology"
)

// dropVia drops every packet silently after showing it to the function.
type dropVia func(*packet.Packet)

func (d dropVia) OnForward(_ *RouterView, p *packet.Packet, _ packet.NodeID) Verdict {
	d(p)
	return Verdict{Action: ActDrop}
}
func (dropVia) OnControl(*RouterView, *ControlMessage) ControlVerdict { return CtrlForward }

// TestPacketReusedAfterLastEvent pins where a pooled packet's life ends.
// For each way it can end — delivered, a TTL, no-route or congestion drop,
// an attacker's silent ActDrop — the packet is still whole when the last
// tap, local handler or Behavior sees it, it is handed back to the pool
// exactly once, and NewPacket hands it out again zeroed.
func TestPacketReusedAfterLastEvent(t *testing.T) {
	noRoute := func(*packet.Packet, packet.NodeID) (packet.NodeID, bool) { return 0, false }
	cases := []struct {
		name string
		// build returns the network, the router whose drop or attacker is
		// watched, and the packets' destination and TTL.
		build func() (net *Network, watch, dst packet.NodeID, ttl uint8)
		count int
		// kind and reason are the event that ends the packets' life; kind
		// 0 is the attacker's ActDrop, which emits none.
		kind   EventKind
		reason queue.DropReason
	}{
		{"delivered", func() (*Network, packet.NodeID, packet.NodeID, uint8) {
			return lineNet(3, Options{Seed: 1}), 2, 2, 0
		}, 3, EvDeliver, queue.DropNone},
		{"ttl", func() (*Network, packet.NodeID, packet.NodeID, uint8) {
			return lineNet(5, Options{Seed: 1}), 2, 4, 2
		}, 3, EvDrop, queue.DropTTL},
		{"no-route", func() (*Network, packet.NodeID, packet.NodeID, uint8) {
			net := lineNet(3, Options{Seed: 1})
			net.Router(1).SetForwarder(noRoute)
			return net, 1, 2, 0
		}, 3, EvDrop, queue.DropNoRoute},
		{"congestion", func() (*Network, packet.NodeID, packet.NodeID, uint8) {
			g := topology.NewGraph()
			a, b := g.AddNode("a"), g.AddNode("b")
			g.AddDuplex(a, b, topology.LinkAttrs{Bandwidth: 1e6, Delay: time.Millisecond, QueueLimit: 1000, Cost: 1})
			return New(g, Options{Seed: 1}), a, b, 0
		}, 10, EvDrop, queue.DropCongestion},
		{"act-drop", func() (*Network, packet.NodeID, packet.NodeID, uint8) {
			return lineNet(3, Options{Seed: 1}), 1, 2, 0
		}, 3, 0, queue.DropNone},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, watch, dst, ttl := tc.build()
			ended, hits := 0, 0 // end-of-life callbacks, and those of the case's kind
			check := func(hit bool) func(*packet.Packet) {
				return func(p *packet.Packet) {
					ended++
					if hit {
						hits++
					}
					if p.Dst != dst || p.Flow != 9 || p.Payload == 0 {
						t.Errorf("packet already reset when its last event ran: %+v", *p)
					}
				}
			}
			// Delivery ends a packet's life in every case (the congestion
			// case delivers what the queue holds).
			net.Router(dst).SetLocalHandler(check(tc.kind == EvDeliver))
			switch tc.kind {
			case EvDrop:
				seen := check(true)
				net.Router(watch).AddTap(func(ev Event) {
					if ev.Kind == EvDrop && ev.Reason == tc.reason {
						seen(ev.Packet)
					}
				})
			case 0:
				net.Router(watch).SetBehavior(dropVia(check(true)))
			}
			sent := map[*packet.Packet]bool{}
			for i := range tc.count {
				p := net.NewPacket()
				p.Dst, p.Size, p.Flow, p.TTL, p.Payload = dst, 500, 9, ttl, uint64(i+1)
				sent[p] = true
				net.Inject(0, p)
			}
			net.Run(time.Second)

			if hits == 0 || ended != tc.count {
				t.Fatalf("%d of %d packets reached their last event, %d by the case's own", ended, tc.count, hits)
			}
			// A packet dropped inside Inject is reused by the very next
			// send, so sent may hold fewer than tc.count packets. The pool
			// gives back each of them, once and zeroed, before it carves a
			// fresh one.
			for range len(sent) {
				q := net.NewPacket()
				if !sent[q] {
					t.Fatalf("NewPacket returned %p: a sent packet was not handed back, or was handed back twice", q)
				}
				if *q.Clone() != (packet.Packet{}) {
					t.Fatalf("reused packet not zeroed: %+v", *q)
				}
				delete(sent, q)
			}
			if q := net.NewPacket(); sent[q] {
				t.Fatalf("packet %p handed out twice", q)
			}
		})
	}
}

// TestPoolFreeOnce: the pool reuses in LIFO order; a second Free of the
// same packet is a no-op, so the pool hands it out once; and a packet the
// program built itself (a Clone of a pooled packet, a literal) is never
// taken into the pool, so a literal's fields survive its delivery.
func TestPoolFreeOnce(t *testing.T) {
	net := lineNet(3, Options{Seed: 1})
	a, b := net.NewPacket(), net.NewPacket()
	net.pool.Free(a)
	net.pool.Free(b)
	if x, y := net.NewPacket(), net.NewPacket(); x != b || y != a {
		t.Fatalf("NewPacket after freeing a then b returned %p, %p; want b %p, a %p", x, y, b, a)
	}

	net.pool.Free(a)
	net.pool.Free(a)
	if x, y := net.NewPacket(), net.NewPacket(); x != a || y == a {
		t.Fatalf("after a double Free, NewPacket returned %p then %p; want %p once", x, y, a)
	}

	c := a.Clone()
	net.pool.Free(c)
	if q := net.NewPacket(); q == c {
		t.Fatal("a Clone of a pooled packet was taken into the pool")
	}

	lit := &packet.Packet{Dst: 2, Size: 500, Flow: 7, Payload: 42}
	net.Inject(0, lit)
	net.Run(time.Second)
	if q := net.NewPacket(); q == lit {
		t.Fatal("a delivered literal was taken into the pool")
	}
	if lit.Dst != 2 || lit.Flow != 7 || lit.Payload != 42 || lit.TTL != 63 || lit.ID == 0 {
		t.Fatalf("literal changed by delivery: %+v", *lit)
	}
}

// kindDropper drops the control messages of one kind.
type kindDropper string

func (kindDropper) OnForward(*RouterView, *packet.Packet, packet.NodeID) Verdict {
	return Verdict{Action: ActForward}
}
func (k kindDropper) OnControl(_ *RouterView, m *ControlMessage) ControlVerdict {
	if m.Kind == string(k) {
		return CtrlDrop
	}
	return CtrlForward
}

// TestEnvelopeReleased pins where a control envelope's life ends. For each
// way it can end — delivered, dropped by a Behavior, lost at a hop with no
// link, or refused at the door for a malformed route — every envelope the
// pool carved is back on its free list after the run, and holds no
// payload or path: a pooled envelope pins nothing.
func TestEnvelopeReleased(t *testing.T) {
	net := lineNet(4, Options{Seed: 1})
	net.Router(2).SetBehavior(kindDropper("drop"))
	payload := &packet.Packet{Flow: 9}
	delivered := 0
	for _, r := range net.Routers() {
		for _, kind := range []string{"x", "drop"} {
			r.HandleControl(kind, func(m *ControlMessage) {
				delivered++
				if m.Payload != payload || len(m.Path) == 0 || m.Path[len(m.Path)-1] != r.ID() {
					t.Errorf("envelope already reset when its handler ran: %+v", *m)
				}
			})
		}
	}
	send := func(kind string, path ...packet.NodeID) {
		net.SendControl(ControlMessage{From: 0, To: 3, Kind: kind, Payload: payload, Path: path})
	}
	send("x", 0, 1, 2, 3)                     // delivered
	send("drop", 0, 1, 2, 3)                  // dropped by the Behavior at 2
	send("x", 0, 1, 0, 3)                     // lost back at 0: no link 0→3
	send("x", 1, 2, 3)                        // refused: the route does not start at From
	net.SendControlDirect(2, 3, "x", payload) // delivered
	net.SendControlDirect(0, 2, "x", payload) // lost: no link 0→2
	net.Run(time.Second)
	if delivered != 2 {
		t.Fatalf("delivered %d messages, want 2", delivered)
	}
	carved := envelopeChunk - len(net.envelopes.chunk)
	if carved != 5 || len(net.envelopes.free) != carved {
		t.Fatalf("%d envelopes carved, %d back on the free list; want 5 and 5", carved, len(net.envelopes.free))
	}
	for _, m := range net.envelopes.free {
		if !reflect.ValueOf(*m).IsZero() {
			t.Fatalf("pooled envelope holds %+v, want the zero message", *m)
		}
	}
}
