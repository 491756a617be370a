package routing

import (
	"math"
	"slices"
	"testing"
	"time"

	"routerwatch/internal/consensus"
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

// A protocol-faulty neighbour can bundle an LSA of any origin, or send a
// typed nil or a bare LSA where a bundle belongs. Each must be dropped at
// the door: no panic, nothing stored, nothing flooded, no recompute
// scheduled. So must a message of the retired per-LSA kind. An alert
// enters at the flood's door instead: whatever the flood delivers or
// refuses, no daemon may exclude anything or recompute.
func TestMalformedRoutingMessagesDropped(t *testing.T) {
	const n = 96
	g := topology.ISP(topology.ISPSpec{Nodes: n, PoPs: 4, Seed: 11})
	tel := &telemetry.Set{Metrics: telemetry.NewRegistry()}
	net := network.New(g, network.Options{Seed: 5, Telemetry: tel})
	proto := Attach(net, consensus.NewService(net), Timers{Delay: time.Second, Hold: 2 * time.Second})
	if !proto.RunUntilConverged(5 * time.Minute) {
		t.Fatal("routing did not converge")
	}
	sent := tel.Registry().Counter("rw_control_messages_total")
	d := proto.Daemon(7)
	from := g.Neighbors(7)[0]
	lsa := func(origin packet.NodeID) *LSA {
		return &LSA{Origin: origin, Seq: math.MaxUint64, Neighbors: []NeighborEntry{{ID: 0, Cost: 1}}}
	}
	one := func(lsa *LSA) *LSABundle { return &LSABundle{LSAs: []*LSA{lsa}} }
	rows := []struct {
		name    string
		payload any
	}{
		{"origin -1", one(lsa(-1))},
		{"origin n", one(lsa(n))},
		{"origin MaxInt32", one(lsa(math.MaxInt32))},
		{"nil LSA", (*LSA)(nil)},
		{"bare LSA", lsa(from)},
		{"bundle of bad origins", &LSABundle{LSAs: []*LSA{lsa(-1), lsa(n), lsa(math.MaxInt32)}}},
		{"nil bundle", (*LSABundle)(nil)},
		{"nil bundle member", one(nil)},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			lsdb, before, pending := slices.Clone(d.lsdb), sent.Value(), net.Scheduler().Pending()
			d.handleLSABundle(&network.ControlMessage{From: from, To: 7, Payload: row.payload})
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

	recomputes := tel.Registry().Counter("rw_routing_recomputes_total")
	member := topology.AppendKey(nil, topology.Segment{from, 7})
	alerts := []struct {
		name           string
		origin, signer packet.NodeID
		payload        []byte
	}{
		{"empty alert", from, from, nil},
		{"odd-length alert", from, from, append(slices.Clone(member), 0)},
		{"one-router alert", from, from, topology.AppendKey(nil, topology.Segment{from})},
		{"non-member alert", from, from, topology.AppendKey(nil, topology.Segment{7, g.Neighbors(7)[1]})},
		{"alert signed by another router", from, 7, member},
	}
	for _, row := range alerts {
		t.Run(row.name, func(t *testing.T) {
			before := recomputes.Value()
			m := &consensus.Msg{Origin: row.origin, Topic: TopicAlert, Payload: row.payload}
			m.Sig = net.Auth().Sign(row.signer, consensus.SignedBody(row.origin, TopicAlert, "", row.payload))
			net.SendControlDirect(from, 7, consensus.KindFlood, m)
			net.Run(net.Now() + 10*time.Second)
			for _, d := range proto.Daemons() {
				if d.Exclusions().Len() != 0 {
					t.Fatalf("router %v excludes %v", d.ID(), d.Exclusions().Segments())
				}
			}
			if got := recomputes.Value(); got != before {
				t.Errorf("%d tables recomputed", got-before)
			}
		})
	}

	// Floods are bundles only: a message of the retired per-LSA kind finds
	// no handler, however new the LSA it carries.
	t.Run("retired kind routing/lsa", func(t *testing.T) {
		lsdb, before := slices.Clone(d.lsdb), recomputes.Value()
		net.SendControlDirect(from, 7, "routing/lsa", lsa(from))
		net.Run(net.Now() + 10*time.Second)
		if !slices.Equal(d.lsdb, lsdb) {
			t.Error("the LSDB changed")
		}
		if got := recomputes.Value(); got != before || d.computeQueued {
			t.Errorf("%d tables recomputed (recompute queued: %v)", got-before, d.computeQueued)
		}
	})
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

// FuzzAcceptLSA feeds one daemon of doorGraph's handleLSABundle, before
// anything has run, a decoded sequence of messages, each from a neighbour:
// op byte mod 3 = 0 is a bundle of one LSA (fuzzLSA), 1 a bundle of (next
// byte mod 4) members, 2 a typed-nil *LSABundle. The daemon
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
		net := network.New(g, network.Options{Seed: 3})
		proto := Attach(net, consensus.NewService(net), Timers{})
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
				m.Payload = &LSABundle{LSAs: []*LSA{lsa}}
				d.handleLSABundle(m)
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

// FuzzRoutingAlert delivers one flooded alert of an arbitrary origin
// (fuzzNode) and payload to a daemon of doorGraph. The daemon must not
// panic, and it excludes exactly the payload's segment when that is a whole
// key of at least two routers with the origin among them, else nothing.
func FuzzRoutingAlert(f *testing.F) {
	f.Add(byte(0), []byte{})
	f.Add(byte(0), []byte{0, 0, 0})                                  // odd length
	f.Add(byte(0), []byte{0, 0, 0, 0, 0, 0, 0, 1, 0})                // ⟨0,1⟩ and a stray byte
	f.Add(byte(0), []byte{0, 0, 0, 0})                               // one router
	f.Add(byte(0), []byte{0, 0, 0, 0, 0, 0, 0, 1})                   // ⟨0,1⟩
	f.Add(byte(2), []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2})       // ⟨0,1,2⟩ from 2
	f.Add(byte(4), []byte{0, 0, 0, 0, 0, 0, 0, 1})                   // non-member
	f.Add(byte(0x80), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1})    // ⟨−1,1⟩ from −1
	f.Add(byte(0x82), []byte{0x7f, 0xff, 0xff, 0xff, 0, 0, 0, 0x1b}) // out-of-range routers
	f.Fuzz(func(t *testing.T, originByte byte, payload []byte) {
		g := doorGraph()
		net := network.New(g, network.Options{Seed: 3})
		proto := Attach(net, consensus.NewService(net), Timers{})
		d := proto.Daemon(0)
		origin := fuzzNode(originByte, g.NumNodes())
		d.onAlert(consensus.Msg{Origin: origin, Topic: TopicAlert, Payload: payload})
		seg := topology.DecodeKey(topology.SegmentKey(payload))
		honour := len(payload)%4 == 0 && len(seg) >= 2 && seg.Contains(origin)
		switch got := d.Exclusions().Segments(); {
		case !honour && len(got) != 0:
			t.Fatalf("alert %v from %v: excludes %v", seg, origin, got)
		case honour && (len(got) != 1 || !slices.Equal(got[0], seg)):
			t.Fatalf("alert %v from %v: excludes %v", seg, origin, got)
		}
	})
}

// TestAlertAdmissionAllocFree: an announcement the daemon refuses or whose
// segment it already excludes costs it no allocation — onAlert reads the
// flooded key in place and decodes only a segment it adds. Daemon 0 of
// doorGraph excludes 1's ⟨0,1,2⟩, then hears a payload that names no
// segment, a segment whose announcer is not on it, and ⟨0,1,2⟩ again from 2.
func TestAlertAdmissionAllocFree(t *testing.T) {
	net := network.New(doorGraph(), network.Options{Seed: 3})
	d := Attach(net, consensus.NewService(net), Timers{}).Daemon(0)
	excluded := topology.AppendKey(nil, topology.Segment{0, 1, 2})
	d.onAlert(consensus.Msg{Origin: 1, Topic: TopicAlert, Payload: excluded})
	if got := d.Exclusions().Segments(); len(got) != 1 {
		t.Fatalf("daemon 0 excludes %v after 1's announcement, want <r0,r1,r2>", got)
	}
	for _, tc := range []struct {
		name string
		m    consensus.Msg
	}{
		{"unknown", consensus.Msg{Origin: 1, Topic: TopicAlert, Payload: excluded[:10]}},
		{"non-member", consensus.Msg{Origin: 4, Topic: TopicAlert,
			Payload: topology.AppendKey(nil, topology.Segment{2, 3})}},
		{"already-excluded", consensus.Msg{Origin: 2, Topic: TopicAlert, Payload: excluded}},
	} {
		if n := testing.AllocsPerRun(100, func() { d.onAlert(tc.m) }); n != 0 {
			t.Errorf("%s alert allocates %v at its daemon, want 0", tc.name, n)
		}
	}
	if got := d.Exclusions().Segments(); len(got) != 1 {
		t.Fatalf("daemon 0 excludes %v, want only the segment it added", got)
	}
}
