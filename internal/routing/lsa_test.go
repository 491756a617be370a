package routing

import (
	"math"
	"slices"
	"testing"
	"time"

	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/telemetry"
	"routerwatch/internal/topology"
)

// doorGraph is the 6-router graph FuzzAcceptLSA attaches to: a ring with
// one chord, 0—3.
func doorGraph() *topology.Graph {
	g := topology.NewGraph()
	for _, name := range []string{"a", "b", "c", "d", "e", "f"} {
		g.AddNode(name)
	}
	attrs := topology.DefaultLinkAttrs()
	for i := 0; i < 6; i++ {
		g.AddDuplex(packet.NodeID(i), packet.NodeID((i+1)%6), attrs)
	}
	g.AddDuplex(0, 3, attrs)
	return g
}

// A protocol-faulty neighbour can send an LSA of any origin, or a typed nil
// where a pointer payload belongs. Each must be dropped at the door: no
// panic, nothing stored, nothing flooded, no recompute scheduled.
func TestMalformedRoutingMessagesDropped(t *testing.T) {
	const n = 96
	g := topology.ISP(topology.ISPSpec{Nodes: n, PoPs: 4, Seed: 11})
	tel := &telemetry.Set{Metrics: telemetry.NewRegistry()}
	net := network.New(g, network.Options{Seed: 5, Telemetry: tel})
	proto := Attach(net, Options{Timers: Timers{Delay: time.Second, Hold: 2 * time.Second}})
	if !proto.RunUntilConverged(5 * time.Minute) {
		t.Fatal("routing did not converge")
	}
	sent := tel.Registry().Counter("rw_control_messages_total")
	d := proto.Daemon(7)
	from := g.Neighbors(7)[0]
	lsa := func(origin packet.NodeID) *LSA {
		return &LSA{Origin: origin, Seq: math.MaxUint64, Neighbors: []NeighborEntry{{ID: 0, Cost: 1}}}
	}
	rows := []struct {
		name    string
		handle  func(*network.ControlMessage)
		payload any
	}{
		{"origin -1", d.handleLSA, lsa(-1)},
		{"origin n", d.handleLSA, lsa(n)},
		{"origin MaxInt32", d.handleLSA, lsa(math.MaxInt32)},
		{"nil LSA", d.handleLSA, (*LSA)(nil)},
		{"bundle of bad origins", d.handleLSABundle, &LSABundle{LSAs: []*LSA{lsa(-1), lsa(n), lsa(math.MaxInt32)}}},
		{"nil bundle", d.handleLSABundle, (*LSABundle)(nil)},
		{"nil bundle member", d.handleLSABundle, &LSABundle{LSAs: []*LSA{nil}}},
		{"nil alert", d.handleAlert, (*Alert)(nil)},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			lsdb, before, pending := slices.Clone(d.lsdb), sent.Value(), net.Scheduler().Pending()
			row.handle(&network.ControlMessage{From: from, To: 7, Payload: row.payload})
			if !slices.Equal(d.lsdb, lsdb) {
				t.Error("the LSDB changed")
			}
			if got := sent.Value(); got != before {
				t.Errorf("%d control messages sent", got-before)
			}
			if got := net.Scheduler().Pending(); got != pending || d.computeQueued {
				t.Errorf("%d events scheduled (recompute queued: %v)", got-pending, d.computeQueued)
			}
		})
	}
}

// fuzzNode decodes one router ID: a byte with the high bit set names one of
// the out-of-range IDs a faulty router might write (−1, n, MaxInt32,
// MinInt32), any other byte an ID in [0, 8) — two past doorGraph's six.
func fuzzNode(b byte, n int) packet.NodeID {
	if b&0x80 != 0 {
		return [...]packet.NodeID{-1, packet.NodeID(n), math.MaxInt32, math.MinInt32}[b&3]
	}
	return packet.NodeID(b % 8)
}

// fuzzLSA decodes one bundle member or LSA payload: 0xff is a typed-nil
// *LSA, any other byte an origin (fuzzNode) followed by seq, a neighbour
// count (mod 5) and that many (ID, cost) pairs. ok is false when data runs
// out first.
func fuzzLSA(data []byte, n int) (lsa *LSA, rest []byte, ok bool) {
	if len(data) == 0 {
		return nil, data, false
	}
	if data[0] == 0xff {
		return nil, data[1:], true
	}
	if len(data) < 3 {
		return nil, data, false
	}
	lsa = &LSA{Origin: fuzzNode(data[0], n), Seq: uint64(data[1])}
	count := int(data[2]) % 5
	data = data[3:]
	if len(data) < 2*count {
		return nil, data, false
	}
	for i := 0; i < count; i++ {
		lsa.Neighbors = append(lsa.Neighbors, NeighborEntry{ID: fuzzNode(data[2*i], n), Cost: int(data[2*i+1])})
	}
	return lsa, data[2*count:], true
}

// FuzzAcceptLSA feeds one daemon of doorGraph, before anything has run, a
// decoded sequence of messages, each from a neighbour: op byte mod 3 = 0 is
// one LSA (fuzzLSA) through handleLSA, 1 a bundle of (next byte mod 4)
// members through handleLSABundle, 2 a typed-nil *LSABundle. The daemon
// must not panic, must store only in-range origins, each at the highest seq
// offered for it, and must advertise only links the graph has.
func FuzzAcceptLSA(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0x80, 5, 0})                               // origin −1
	f.Add([]byte{0, 0x81, 5, 0})                               // origin n
	f.Add([]byte{0, 0x82, 5, 0})                               // origin MaxInt32
	f.Add([]byte{0, 0xff})                                     // typed-nil *LSA
	f.Add([]byte{2})                                           // typed-nil *LSABundle
	f.Add([]byte{1, 2, 0xff, 0x82, 9, 1, 0, 1})                // bundle: nil member, bad origin
	f.Add([]byte{0, 3, 4, 2, 2, 1, 4, 1, 0, 3, 9, 1, 0x80, 1}) // a newer LSA with a bogus neighbour
	f.Add([]byte{1, 3, 2, 7, 3, 1, 5, 2, 0, 2, 1, 4, 2, 1, 2, 2, 1, 0, 1, 2, 3, 1, 6, 5, 1, 0, 3, 4, 2, 2, 1, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := doorGraph()
		proto := Attach(network.New(g, network.Options{Seed: 3}), Options{})
		n := g.NumNodes()
		d := proto.Daemon(0)
		nbrs := g.Neighbors(0)
		best := make(map[packet.NodeID]uint64)
		offer := func(lsa *LSA) {
			if lsa != nil && lsa.Origin >= 0 && int(lsa.Origin) < n {
				if s, ok := best[lsa.Origin]; !ok || lsa.Seq > s {
					best[lsa.Origin] = lsa.Seq
				}
			}
		}
		for i := 0; len(data) > 0; i++ {
			op := data[0] % 3
			data = data[1:]
			m := &network.ControlMessage{From: nbrs[i%len(nbrs)], To: 0}
			switch op {
			case 0:
				lsa, rest, ok := fuzzLSA(data, n)
				if !ok {
					data = nil
					break
				}
				data = rest
				offer(lsa)
				m.Payload = lsa
				d.handleLSA(m)
			case 1:
				if len(data) == 0 {
					break
				}
				b := &LSABundle{}
				count := int(data[0]) % 4
				data = data[1:]
				for j := 0; j < count; j++ {
					lsa, rest, ok := fuzzLSA(data, n)
					if !ok {
						break
					}
					data = rest
					offer(lsa)
					b.LSAs = append(b.LSAs, lsa)
				}
				m.Payload = b
				d.handleLSABundle(m)
			case 2:
				m.Payload = (*LSABundle)(nil)
				d.handleLSABundle(m)
			}
		}
		if len(d.lsdb) != n {
			t.Fatalf("LSDB has %d slots for %d routers", len(d.lsdb), n)
		}
		for o, lsa := range d.lsdb {
			s, offered := best[packet.NodeID(o)]
			switch {
			case !offered && lsa != nil:
				t.Fatalf("origin %d stored though never offered", o)
			case offered && (lsa == nil || lsa.Origin != packet.NodeID(o) || lsa.Seq != s):
				t.Fatalf("origin %d holds %+v, want the seq-%d LSA", o, lsa, s)
			}
		}
		var c topology.CSR
		d.lsdbCSR(&c, g.CSR())
		for u := 0; u < c.NumNodes(); u++ {
			for _, v := range c.Row(packet.NodeID(u)) {
				if !g.HasLink(packet.NodeID(u), v) {
					t.Fatalf("advertised link %d→%v is not in the graph", u, v)
				}
			}
		}
	})
}
