package attack

import (
	"math/rand"
	"testing"
	"time"

	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

func lineNet() *network.Network {
	return network.New(topology.Line(3), network.Options{Seed: 1})
}

func inject(net *network.Network, n int, flow packet.FlowID) (delivered int) {
	net.Router(2).SetLocalHandler(func(*packet.Packet) { delivered++ })
	for i := 0; i < n; i++ {
		net.Inject(0, &packet.Packet{Dst: 2, Size: 1000, Flow: flow, Seq: uint32(i)})
		net.Run(net.Now() + time.Millisecond)
	}
	net.Run(net.Now() + time.Second)
	return delivered
}

func TestDropperUnconditional(t *testing.T) {
	net := lineNet()
	d := &Dropper{Select: All, P: 1}
	net.Router(1).SetBehavior(d)
	if got := inject(net, 20, 5); got != 0 {
		t.Fatalf("delivered %d, want 0", got)
	}
	if d.Dropped != 20 {
		t.Fatalf("dropped %d, want 20", d.Dropped)
	}
}

func TestDropperFraction(t *testing.T) {
	net := lineNet()
	d := &Dropper{Select: All, P: 0.2, Rng: rand.New(rand.NewSource(9))}
	net.Router(1).SetBehavior(d)
	got := inject(net, 1000, 5)
	if d.Dropped < 150 || d.Dropped > 260 {
		t.Fatalf("dropped %d of 1000, want ≈200", d.Dropped)
	}
	if got != 1000-d.Dropped {
		t.Fatalf("delivered %d + dropped %d != 1000", got, d.Dropped)
	}
}

func TestDropperFlowSelective(t *testing.T) {
	net := lineNet()
	d := &Dropper{Select: ByFlow(7), P: 1}
	net.Router(1).SetBehavior(d)
	delivered := make(map[packet.FlowID]int)
	net.Router(2).SetLocalHandler(func(p *packet.Packet) { delivered[p.Flow]++ })
	for i := 0; i < 50; i++ {
		net.Inject(0, &packet.Packet{Dst: 2, Size: 500, Flow: 7})
		net.Inject(0, &packet.Packet{Dst: 2, Size: 500, Flow: 8})
		net.Run(net.Now() + time.Millisecond)
	}
	net.Run(net.Now() + time.Second)
	if delivered[7] != 0 || delivered[8] != 50 {
		t.Fatalf("delivered = %v, want flow 7 dead, flow 8 intact", delivered)
	}
}

func TestDropperWindow(t *testing.T) {
	net := lineNet()
	d := &Dropper{Select: All, P: 1, Start: 25 * time.Millisecond, Stop: 40 * time.Millisecond}
	net.Router(1).SetBehavior(d)
	got := inject(net, 50, 1) // one per ms
	if d.Dropped == 0 || d.Dropped == 50 {
		t.Fatalf("windowed attack dropped %d, want partial", d.Dropped)
	}
	if got+d.Dropped != 50 {
		t.Fatalf("delivered %d + dropped %d != 50", got, d.Dropped)
	}
}

func TestDropperQueueGated(t *testing.T) {
	// With an almost-empty queue, a MinQueueFrac=0.9 dropper never fires.
	net := lineNet()
	d := &Dropper{Select: All, P: 1, MinQueueFrac: 0.9}
	net.Router(1).SetBehavior(d)
	got := inject(net, 30, 1)
	if got != 30 || d.Dropped != 0 {
		t.Fatalf("queue-gated dropper fired on empty queue: delivered %d dropped %d", got, d.Dropped)
	}
}

func TestSYNSelector(t *testing.T) {
	syn := &packet.Packet{Flags: packet.FlagSYN}
	synack := &packet.Packet{Flags: packet.FlagSYN | packet.FlagACK}
	data := &packet.Packet{}
	if !SYNOnly(syn) || SYNOnly(synack) || SYNOnly(data) {
		t.Fatal("SYNOnly misclassifies")
	}
	if !DataOnly(data) || DataOnly(syn) {
		t.Fatal("DataOnly misclassifies")
	}
	sel := And(SYNOnly, ByDst(3))
	if sel(&packet.Packet{Flags: packet.FlagSYN, Dst: 4}) {
		t.Fatal("And selector ignored ByDst")
	}
	if !sel(&packet.Packet{Flags: packet.FlagSYN, Dst: 3}) {
		t.Fatal("And selector rejected a victim")
	}
}

func TestModifierChangesFingerprint(t *testing.T) {
	net := lineNet()
	m := &Modifier{Select: All}
	net.Router(1).SetBehavior(m)
	h := net.Hasher()
	orig := &packet.Packet{ID: 55, Src: 0, Dst: 2, Size: 500, Flow: 3, Payload: 42}
	wantFP := h.Fingerprint(orig)
	var gotFP packet.Fingerprint
	net.Router(2).SetLocalHandler(func(p *packet.Packet) { gotFP = h.Fingerprint(p) })
	net.Inject(0, orig.Clone())
	net.Run(time.Second)
	if gotFP == 0 {
		t.Fatal("packet not delivered")
	}
	if gotFP == wantFP {
		t.Fatal("modification did not change the fingerprint")
	}
	if m.Modified != 1 {
		t.Fatalf("modified count %d", m.Modified)
	}
}

func TestDelayerReorders(t *testing.T) {
	net := lineNet()
	dl := &Delayer{Select: DataOnly, Delay: 0, Jitter: 5 * time.Millisecond, Rng: rand.New(rand.NewSource(2))}
	net.Router(1).SetBehavior(dl)
	var order []uint32
	net.Router(2).SetLocalHandler(func(p *packet.Packet) { order = append(order, p.Seq) })
	for i := 0; i < 30; i++ {
		net.Inject(0, &packet.Packet{Dst: 2, Size: 100, Seq: uint32(i)})
		net.Run(net.Now() + 200*time.Microsecond)
	}
	net.Run(net.Now() + time.Second)
	if len(order) != 30 {
		t.Fatalf("delivered %d", len(order))
	}
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("jittered delayer did not reorder")
	}
}

func TestMisrouter(t *testing.T) {
	g := topology.NewGraph()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	attrs := topology.DefaultLinkAttrs()
	g.AddDuplex(a, b, attrs)
	g.AddDuplex(a, c, attrs)
	g.AddDuplex(b, c, attrs)
	net := network.New(g, network.Options{Seed: 1})
	mr := &Misrouter{Select: All, To: c}
	net.Router(a).SetBehavior(mr)
	sawC := false
	net.Router(c).AddTap(func(ev network.Event) {
		if ev.Kind == network.EvReceive {
			sawC = true
		}
	})
	net.Inject(a, &packet.Packet{Dst: b, Size: 100})
	net.Run(time.Second)
	if !sawC || mr.Misrouted != 1 {
		t.Fatalf("misroute did not occur: sawC=%v count=%d", sawC, mr.Misrouted)
	}
}

func TestFabricator(t *testing.T) {
	net := lineNet()
	f := NewFabricator(net, 1, 0, 2, 700, 10*time.Millisecond)
	fabs := 0
	net.Router(2).SetLocalHandler(func(p *packet.Packet) {
		if p.Flow == 0xFAB {
			fabs++
		}
	})
	net.Run(105 * time.Millisecond)
	if fabs < 9 || fabs > 11 {
		t.Fatalf("fabricated deliveries %d, want ≈10", fabs)
	}
	if f.Fabricated != fabs {
		t.Fatalf("counter %d != delivered %d", f.Fabricated, fabs)
	}
}

func TestControlDropperSelective(t *testing.T) {
	net := lineNet()
	cd := &ControlDropper{Kinds: map[string]bool{"secret": true}}
	net.Router(1).SetBehavior(cd)
	gotSecret, gotPlain := false, false
	net.Router(2).HandleControl("secret", func(*network.ControlMessage) { gotSecret = true })
	net.Router(2).HandleControl("plain", func(*network.ControlMessage) { gotPlain = true })
	net.SendControl(network.ControlMessage{From: 0, To: 2, Kind: "secret", Path: topology.Path{0, 1, 2}})
	net.SendControl(network.ControlMessage{From: 0, To: 2, Kind: "plain", Path: topology.Path{0, 1, 2}})
	net.Run(time.Second)
	if gotSecret {
		t.Fatal("selected control kind not dropped")
	}
	if !gotPlain {
		t.Fatal("unselected control kind dropped")
	}
	if cd.Dropped != 1 {
		t.Fatalf("dropped count %d", cd.Dropped)
	}
}

func TestCompose(t *testing.T) {
	net := lineNet()
	d := &Dropper{Select: ByFlow(1), P: 1}
	m := &Modifier{Select: ByFlow(2)}
	net.Router(1).SetBehavior(&Compose{Behaviors: []network.Behavior{d, m}})
	h := net.Hasher()
	var fps []packet.Fingerprint
	net.Router(2).SetLocalHandler(func(p *packet.Packet) { fps = append(fps, h.Fingerprint(p)) })

	// Pre-assign IDs and sources so expected fingerprints can be computed
	// before injection (Inject would otherwise assign them).
	p1 := &packet.Packet{ID: 101, Src: 0, Dst: 2, Size: 100, Flow: 1}
	p2 := &packet.Packet{ID: 102, Src: 0, Dst: 2, Size: 100, Flow: 2, Payload: 9}
	p3 := &packet.Packet{ID: 103, Src: 0, Dst: 2, Size: 100, Flow: 3, Payload: 9}
	want2 := h.Fingerprint(p2)
	want3 := h.Fingerprint(p3)
	net.Inject(0, p1)
	net.Inject(0, p2.Clone())
	net.Inject(0, p3.Clone())
	net.Run(time.Second)

	if len(fps) != 2 {
		t.Fatalf("delivered %d, want 2 (flow 1 dropped)", len(fps))
	}
	if d.Dropped != 1 || m.Modified != 1 {
		t.Fatalf("component counters: dropped=%d modified=%d", d.Dropped, m.Modified)
	}
	// Flow 2 modified, flow 3 untouched.
	for _, fp := range fps {
		if fp == want2 {
			t.Fatal("flow 2 fingerprint unchanged by modifier")
		}
	}
	found3 := false
	for _, fp := range fps {
		if fp == want3 {
			found3 = true
		}
	}
	if !found3 {
		t.Fatal("flow 3 was altered")
	}
}
