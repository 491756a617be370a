package network

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/queue"
	"routerwatch/internal/sim"
	"routerwatch/internal/topology"
)

// trajectoryDigest hashes every packet's event sequence — (Kind, Router,
// Time, Peer, Reason, QueueBytes) in the order the routers emitted them — in
// packet-ID order. It is everything a tap can read about a packet, so two
// kernels with the same digest are indistinguishable to every detector,
// capture and attacker; what it deliberately leaves out is the interleaving
// of different packets' same-instant events, which no tap consumer reads.
func trajectoryDigest(net *Network) func() string {
	perPacket := make(map[uint64][]Event)
	for _, r := range net.Routers() {
		r.AddTap(func(ev Event) { perPacket[ev.Packet.ID] = append(perPacket[ev.Packet.ID], ev) })
	}
	return func() string {
		ids := make([]uint64, 0, len(perPacket))
		for id := range perPacket {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		h := sha256.New()
		var rec [8 + 6*8]byte
		for _, id := range ids {
			for _, ev := range perPacket[id] {
				binary.LittleEndian.PutUint64(rec[0:], id)
				binary.LittleEndian.PutUint64(rec[8:], uint64(ev.Kind))
				binary.LittleEndian.PutUint64(rec[16:], uint64(ev.Router))
				binary.LittleEndian.PutUint64(rec[24:], uint64(ev.Time))
				binary.LittleEndian.PutUint64(rec[32:], uint64(ev.Peer))
				binary.LittleEndian.PutUint64(rec[40:], uint64(ev.Reason))
				binary.LittleEndian.PutUint64(rec[48:], uint64(ev.QueueBytes))
				h.Write(rec[:])
			}
		}
		return hex.EncodeToString(h.Sum(nil)[:12])
	}
}

// bottleneckLine is a 5-router line whose r2→r3 link is slow and shallow.
func bottleneckLine(bandwidth int64, limit int) *topology.Graph {
	g := topology.NewGraph()
	fast := topology.DefaultLinkAttrs()
	slow := topology.LinkAttrs{Bandwidth: bandwidth, Delay: 5 * time.Millisecond, QueueLimit: limit, Cost: 10}
	var prev packet.NodeID
	for i := 0; i < 5; i++ {
		id := g.AddNode(fmt.Sprintf("n%d", i))
		if i == 3 {
			g.AddDuplex(prev, id, slow)
		} else if i > 0 {
			g.AddDuplex(prev, id, fast)
		}
		prev = id
	}
	return g
}

// cbr schedules n packets of one size from src to dst every interval. Fixed
// spacing is deliberate: with a period that is a multiple of the bottleneck's
// transmission time, arrivals land on the exact nanosecond a serialisation
// ends — the ties whose order the interface's departure-first rule decides.
func cbr(net *Network, src, dst packet.NodeID, flow packet.FlowID, size, n int, interval time.Duration) {
	for k := 0; k < n; k++ {
		seq := uint32(k)
		net.Scheduler().At(time.Duration(k)*interval, func() {
			net.Inject(src, &packet.Packet{Dst: dst, Size: size, Flow: flow, Seq: seq})
		})
	}
}

// paced is cbr with seeded gaps and sizes (mean spacing interval, sizes in
// [size/2, size]) for sources whose own output link backs up: a fixed-period
// source at a multiple of its line's transmission time would inject on the
// nanosecond that line frees, and for a locally injected packet that tie is
// the one order ISSUE 23 changed (TestDepartureBeforeSameInstantArrival).
// Transit ties still occur under paced traffic wherever byte sums coincide
// on equal-rate links, and are reproduced.
func paced(net *Network, src, dst packet.NodeID, flow packet.FlowID, size, n int, interval time.Duration) {
	rng := sim.NewRNG(int64(flow)<<20 | int64(src)<<10 | int64(dst))
	var at time.Duration
	for k := 0; k < n; k++ {
		at += interval/2 + time.Duration(rng.Int63n(int64(interval)))
		sz := size/2 + rng.Intn(size/2+1)
		seq := uint32(k)
		net.Scheduler().At(at, func() {
			net.Inject(src, &packet.Packet{Dst: dst, Size: sz, Flow: flow, Seq: seq})
		})
	}
}

// poisson schedules n packets between seeded-random pairs drawn from nodes
// with exponential gaps of the given mean.
func poisson(net *Network, nodes []packet.NodeID, seed int64, n int, mean time.Duration) {
	rng := sim.NewRNG(seed)
	at := time.Millisecond
	for k := 0; k < n; k++ {
		at += time.Duration(rng.ExpFloat64() * float64(mean))
		src := nodes[rng.Intn(len(nodes))]
		dst := nodes[rng.Intn(len(nodes))]
		if src == dst {
			continue
		}
		size := 200 + rng.Intn(1200)
		seq := uint32(k)
		net.Scheduler().At(at, func() {
			net.Inject(src, &packet.Packet{Dst: dst, Size: size, Flow: packet.FlowID(src)<<16 | packet.FlowID(dst), Seq: seq})
		})
	}
}

// idBehavior decides by packet ID, so its verdicts do not depend on the
// order the kernel happens to consult it in.
type idBehavior func(p *packet.Packet, next packet.NodeID) Verdict

func (f idBehavior) OnForward(_ *RouterView, p *packet.Packet, next packet.NodeID) Verdict {
	return f(p, next)
}
func (idBehavior) OnControl(*RouterView, *ControlMessage) ControlVerdict { return CtrlForward }

// TestPacketTrajectoriesMatchParent is the tie argument for ISSUE 23 written
// down as digests: they were taken at the parent commit (266a43c: three
// scheduler events per hop, busy flag + txDone), and the one-event-per-hop
// kernel must reproduce them. The kernel's order among same-nanosecond
// events did change (DESIGN "Hot path"); these scenarios — overflow, RED
// coin flips drawn from the router's RNG, jitter drawn from that same RNG,
// delay and divert verdicts, a 96-router mesh — show no tap can tell.
func TestPacketTrajectoriesMatchParent(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Network, time.Duration)
		want  string
	}{
		{"line5-droptail-overflow", func() (*Network, time.Duration) {
			// 1000 B at 2 Mbit/s serialises in 4 ms; two sources at 2 ms
			// and 3 ms spacing overflow the 8 kB buffer within a second,
			// and every arrival at r2 ties with the end of a serialisation.
			net := New(bottleneckLine(2e6, 8_000), Options{Seed: 1})
			cbr(net, 0, 4, 1, 1000, 900, 2*time.Millisecond)
			cbr(net, 1, 4, 2, 500, 600, 3*time.Millisecond)
			cbr(net, 4, 0, 3, 1000, 300, 4*time.Millisecond)
			return net, 4 * time.Second
		}, "637e31c43c41ce93ffce80f3"},
		{"line5-red-early", func() (*Network, time.Duration) {
			cfg := queue.DefaultREDConfig(0)
			cfg.Limit, cfg.MinTh, cfg.MaxTh, cfg.Weight = 40_000, 5_000, 20_000, 0.02
			net := New(bottleneckLine(4e6, 40_000), Options{Seed: 2, QueueFactory: REDFactory(cfg)})
			cbr(net, 0, 4, 1, 1000, 2000, 1500*time.Microsecond)
			poisson(net, []packet.NodeID{0, 1, 4}, 21, 1500, time.Millisecond)
			return net, 5 * time.Second
		}, "4030032baacedfcc652a4757"},
		{"line5-jitter-500us", func() (*Network, time.Duration) {
			net := New(bottleneckLine(8e6, 30_000), Options{Seed: 3, ProcessingJitter: 500 * time.Microsecond})
			paced(net, 0, 4, 1, 1000, 1500, time.Millisecond)
			paced(net, 4, 1, 2, 400, 1500, time.Millisecond)
			poisson(net, []packet.NodeID{0, 1, 2, 3, 4}, 31, 1500, time.Millisecond)
			return net, 4 * time.Second
		}, "d6945556285137c329ed1bc5"},
		{"diamond-delay-divert", func() (*Network, time.Duration) {
			// a–b–d and a–c–d; b delays every third packet and diverts
			// every fifth back through a's other branch.
			g := topology.NewGraph()
			a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
			attrs := topology.DefaultLinkAttrs()
			g.AddDuplex(a, b, attrs)
			g.AddDuplex(b, d, attrs)
			attrs.Cost = 20
			g.AddDuplex(a, c, attrs)
			g.AddDuplex(c, d, attrs)
			g.AddDuplex(b, c, attrs)
			net := New(g, Options{Seed: 4})
			net.Router(b).SetBehavior(idBehavior(func(p *packet.Packet, _ packet.NodeID) Verdict {
				switch {
				case p.ID%3 == 0:
					return Verdict{Action: ActDelay, Delay: time.Duration(p.ID%7) * 80 * time.Microsecond}
				case p.ID%5 == 0:
					return Verdict{Action: ActDivert, NewNext: c}
				}
				return Verdict{Action: ActForward}
			}))
			paced(net, a, d, 1, 1000, 2000, 80*time.Microsecond)
			paced(net, d, a, 2, 1000, 2000, 80*time.Microsecond)
			paced(net, c, b, 3, 500, 1000, 160*time.Microsecond)
			return net, time.Second
		}, "ed1611e3b7f84ccb52ff642b"},
		{"isp96-mesh-dropper", func() (*Network, time.Duration) {
			g := topology.ISP(topology.ISPSpec{Nodes: 96, PoPs: 4, Seed: 11})
			net := New(g, Options{Seed: 5})
			// Router 0 is a PoP core: it drops 60% of what it forwards.
			net.Router(0).SetBehavior(idBehavior(func(p *packet.Packet, _ packet.NodeID) Verdict {
				if p.ID*2654435761%100 < 60 {
					return Verdict{Action: ActDrop}
				}
				return Verdict{Action: ActForward}
			}))
			poisson(net, g.Nodes(), 51, 20_000, 50*time.Microsecond)
			// Heavy flows on top. Edge links run at 1 Gbit/s (750 B in 6 µs):
			// six sources converge on one edge router at twice its
			// downlink, and one source sends two flows at 1.5× its uplink.
			nodes := g.Nodes()
			sink, src := nodes[len(nodes)-1], nodes[len(nodes)-2]
			for i := 0; i < 6; i++ {
				paced(net, nodes[len(nodes)-10-7*i], sink, packet.FlowID(100+i), 1000, 400, 16*time.Microsecond)
			}
			paced(net, src, nodes[20], 200, 1000, 600, 8*time.Microsecond)
			paced(net, src, nodes[50], 201, 1000, 600, 8*time.Microsecond)
			return net, 3 * time.Second
		}, "ab332305df6a30a02df65ffa"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, horizon := tc.build()
			digest := trajectoryDigest(net)
			c := NewCounters()
			waited := 0 // packets that found the line busy: the drain-event path
			for _, r := range net.Routers() {
				r.AddTap(c.Tap())
				r.AddTap(func(ev Event) {
					if ev.Kind == EvEnqueue && ev.QueueBytes > ev.Packet.Size {
						waited++
					}
				})
			}
			net.Run(horizon)
			if net.Scheduler().Pending() != 0 {
				t.Fatalf("%d events still pending at the horizon", net.Scheduler().Pending())
			}
			t.Logf("injected %d dequeued %d (%d waited) delivered %d drops %v", c.Injected, c.Dequeued, waited, c.Delivered, c.Drops)
			if waited == 0 {
				t.Fatal("no packet ever waited for a line: the scenario does not exercise the drain path")
			}
			if got := digest(); got != tc.want {
				t.Errorf("trajectory digest %s, parent's is %s", got, tc.want)
			}
		})
	}
}
