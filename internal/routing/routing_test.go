package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"routerwatch/internal/consensus"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

func TestComputeTablePlain(t *testing.T) {
	g := topology.Line(4)
	tables := make(map[packet.NodeID]*Table)
	excl := NewExclusions()
	for _, id := range g.Nodes() {
		tables[id] = ComputeTable(g, id, excl)
	}
	p := PathFromTables(tables, 0, 3, 10)
	if len(p) != 4 {
		t.Fatalf("path %v, want the 4-node line", p)
	}
}

func TestExclusionLinkRemoval(t *testing.T) {
	// Square: a-b-d and a-c-d. Exclude ⟨a,b⟩: traffic must go a-c-d.
	g := topology.NewGraph()
	a, b := g.AddNode("a"), g.AddNode("b")
	c, dd := g.AddNode("c"), g.AddNode("d")
	attrs := topology.DefaultLinkAttrs()
	g.AddDuplex(a, b, attrs)
	g.AddDuplex(b, dd, attrs)
	g.AddDuplex(a, c, attrs)
	g.AddDuplex(c, dd, attrs)

	excl := NewExclusions()
	if !excl.Add(topology.Segment{a, b}) {
		t.Fatal("Add returned false for fresh segment")
	}
	if excl.Add(topology.Segment{a, b}) {
		t.Fatal("duplicate Add returned true")
	}

	tables := make(map[packet.NodeID]*Table)
	for _, id := range g.Nodes() {
		tables[id] = ComputeTable(g, id, excl)
	}
	p := PathFromTables(tables, a, dd, 10)
	want := topology.Path{a, c, dd}
	if p.String() != want.String() {
		t.Fatalf("path %v, want %v", p, want)
	}
	// Reverse direction b→a is NOT excluded (directed exclusion).
	if p := PathFromTables(tables, b, a, 10); p == nil || len(p) != 2 {
		t.Fatalf("reverse path %v, want direct", p)
	}
}

func TestExclusionTransitionForbidden(t *testing.T) {
	// Line 0-1-2-3 plus detour 1-4-2. Excluding ⟨0,1,2⟩ forbids the
	// transition at 1, so 0's traffic goes 0-1-4-2-3, while 1's own
	// locally originated traffic may still use 1-2 directly.
	g := topology.Line(4)
	four := g.AddNode("n4")
	attrs := topology.DefaultLinkAttrs()
	g.AddDuplex(1, four, attrs)
	g.AddDuplex(four, 2, attrs)

	excl := NewExclusions()
	excl.Add(topology.Segment{0, 1, 2})

	tables := make(map[packet.NodeID]*Table)
	for _, id := range g.Nodes() {
		tables[id] = ComputeTable(g, id, excl)
	}
	p := PathFromTables(tables, 0, 3, 10)
	want := topology.Path{0, 1, four, 2, 3}
	if p.String() != want.String() {
		t.Fatalf("path %v, want %v", p, want)
	}
	// Locally originated traffic at 1 is unaffected by the transition.
	p1 := PathFromTables(tables, 1, 3, 10)
	want1 := topology.Path{1, 2, 3}
	if p1.String() != want1.String() {
		t.Fatalf("local path %v, want %v", p1, want1)
	}
}

func TestExclusionDisconnects(t *testing.T) {
	g := topology.Line(3)
	excl := NewExclusions()
	excl.Add(topology.Segment{0, 1})
	tbl := ComputeTable(g, 0, excl)
	if _, ok := tbl.NextHop(0, 2); ok {
		t.Fatal("excluded-only route still returned a next hop")
	}
}

func TestLongSegmentExclusion(t *testing.T) {
	e := NewExclusions()
	e.Add(topology.Segment{1, 2, 3, 4})
	if !e.TransitionForbidden(1, 2, 3) || !e.TransitionForbidden(2, 3, 4) {
		t.Fatal("interior transitions not forbidden")
	}
	if e.LinkExcluded(1, 2) {
		t.Fatal("4-segment should not remove links")
	}
	if e.Len() != 1 || !e.Has(topology.Segment{1, 2, 3, 4}) {
		t.Fatal("segment bookkeeping wrong")
	}
}

func newAbileneNet(t *testing.T) (*network.Network, *Protocol) {
	t.Helper()
	g := topology.Abilene()
	net := network.New(g, network.Options{Seed: 5})
	proto := Attach(net, consensus.NewService(net), Timers{Delay: time.Second, Hold: 2 * time.Second})
	if !proto.RunUntilConverged(time.Minute) {
		t.Fatal("routing did not converge")
	}
	return net, proto
}

func TestDaemonConvergence(t *testing.T) {
	net, proto := newAbileneNet(t)
	g := net.Graph()
	sunny, _ := g.Lookup("Sunnyvale")
	ny, _ := g.Lookup("NewYork")

	// After convergence, data-plane delivery works along the primary path.
	var deliveredAt time.Duration
	net.Router(ny).SetLocalHandler(func(p *packet.Packet) { deliveredAt = net.Now() })
	start := net.Now()
	net.Inject(sunny, &packet.Packet{Dst: ny, Size: 1000})
	net.Run(start + time.Second)
	if deliveredAt == 0 {
		t.Fatal("packet not delivered after convergence")
	}
	oneWay := deliveredAt - start
	// 25 ms propagation plus transmission times (1000B @ 100Mb/s = 80 µs/hop).
	if oneWay < 25*time.Millisecond || oneWay > 27*time.Millisecond {
		t.Fatalf("one-way latency %v, want ≈25ms", oneWay)
	}
	_ = proto
}

func TestAlertTriggersReroute(t *testing.T) {
	net, proto := newAbileneNet(t)
	g := net.Graph()
	sunny, _ := g.Lookup("Sunnyvale")
	ny, _ := g.Lookup("NewYork")
	den, _ := g.Lookup("Denver")
	kc, _ := g.Lookup("KansasCity")
	ind, _ := g.Lookup("Indianapolis")

	// Denver suspects ⟨Denver, KansasCity, Indianapolis⟩ and floods it.
	proto.Daemon(den).AnnounceSuspicion(topology.Segment{den, kc, ind})
	// Delay (1s) + margin for flooding.
	net.Run(net.Now() + 5*time.Second)

	var deliveredAt time.Duration
	var hops []packet.NodeID
	for _, r := range net.Routers() {
		r := r
		r.AddTap(func(ev network.Event) {
			if ev.Kind == network.EvReceive {
				hops = append(hops, ev.Router)
			}
		})
	}
	net.Router(ny).SetLocalHandler(func(p *packet.Packet) { deliveredAt = net.Now() })
	start := net.Now()
	net.Inject(sunny, &packet.Packet{Dst: ny, Size: 1000})
	net.Run(start + time.Second)

	if deliveredAt == 0 {
		t.Fatal("packet not delivered after reroute")
	}
	for _, h := range hops {
		if h == kc {
			t.Fatalf("packet still traversed Kansas City: hops %v", hops)
		}
	}
	oneWay := deliveredAt - start
	if oneWay < 27*time.Millisecond || oneWay > 30*time.Millisecond {
		t.Fatalf("post-reroute latency %v, want ≈28ms", oneWay)
	}
}

func TestBogusAlertRejected(t *testing.T) {
	net, proto := newAbileneNet(t)
	g := net.Graph()
	kc, _ := g.Lookup("KansasCity")
	ind, _ := g.Lookup("Indianapolis")
	chi, _ := g.Lookup("Chicago")
	sea, _ := g.Lookup("Seattle")
	seg := topology.Segment{kc, ind, chi}

	// The announcer's check: Seattle, not a member of the segment, floods
	// nothing when asked to announce it.
	pending := net.Scheduler().Pending()
	proto.Daemon(sea).AnnounceSuspicion(seg)
	if got := net.Scheduler().Pending(); got != pending {
		t.Fatalf("a non-member announcement scheduled %d events", got-pending)
	}

	// The receiver's check: Seattle floods a validly signed alert framing
	// Kansas City–Indianapolis–Chicago past its own daemon. Every router,
	// Seattle's included, must ignore it.
	proto.flood.Flood(sea, TopicAlert, "", topology.AppendKey(nil, seg))
	net.Run(net.Now() + 5*time.Second)
	for _, d := range proto.Daemons() {
		if d.Exclusions().Len() != 0 {
			t.Fatalf("router %v accepted a non-member suspicion", d.ID())
		}
	}
}

func TestForgedAlertSignatureRejected(t *testing.T) {
	net, proto := newAbileneNet(t)
	g := net.Graph()
	den, _ := g.Lookup("Denver")
	kc, _ := g.Lookup("KansasCity")
	ind, _ := g.Lookup("Indianapolis")
	sea, _ := g.Lookup("Seattle")

	// Seattle forges an alert claiming to be from Denver without Denver's
	// key: signature verification must reject it.
	forged := &consensus.Msg{Origin: den, Topic: TopicAlert, Payload: topology.AppendKey(nil, topology.Segment{den, kc, ind})}
	forged.Sig = net.Auth().Sign(sea, consensus.SignedBody(den, TopicAlert, "", forged.Payload))
	forged.Sig.Signer = den // lie about the signer
	for _, nb := range g.Neighbors(sea) {
		net.SendControlDirect(sea, nb, consensus.KindFlood, forged)
	}
	net.Run(net.Now() + 5*time.Second)
	for _, d := range proto.Daemons() {
		if d.Exclusions().Len() != 0 {
			t.Fatalf("router %v accepted a forged alert", d.ID())
		}
	}
}

// TestForgedAlertDoesNotShadowGenuine pins the order of the flood's checks:
// an alert's body is predictable, so a faulty router can send its
// neighbours a forged copy of ⟨x,f,y⟩ before x announces it. The forgery
// must be dropped without being remembered, so x's genuine announcement
// still reaches every correct router.
func TestForgedAlertDoesNotShadowGenuine(t *testing.T) {
	net, proto := newAbileneNet(t)
	g := net.Graph()
	den, _ := g.Lookup("Denver")
	kc, _ := g.Lookup("KansasCity")
	ind, _ := g.Lookup("Indianapolis")
	seg := topology.Segment{den, kc, ind}

	forged := &consensus.Msg{Origin: den, Topic: TopicAlert, Payload: topology.AppendKey(nil, seg)}
	forged.Sig = net.Auth().Sign(kc, consensus.SignedBody(den, TopicAlert, "", forged.Payload))
	forged.Sig.Signer = den
	for _, nb := range g.Neighbors(kc) {
		net.SendControlDirect(kc, nb, consensus.KindFlood, forged)
	}
	net.Run(net.Now() + time.Second)
	net.Scheduler().At(net.Now(), func() { proto.Daemon(den).AnnounceSuspicion(seg) })
	net.Run(net.Now() + 5*time.Second)
	for _, d := range proto.Daemons() {
		if d.ID() != kc && !d.Exclusions().Has(seg) {
			t.Fatalf("correct router %v does not exclude %v after a forged copy", d.ID(), seg)
		}
	}
}

// firstAlertDropper is a protocol-faulty relay that drops the first control
// message it handles that is not an LSA, and forwards everything else.
type firstAlertDropper struct{ dropped bool }

func (b *firstAlertDropper) OnForward(*network.RouterView, *packet.Packet, packet.NodeID) network.Verdict {
	return network.Verdict{Action: network.ActForward}
}

func (b *firstAlertDropper) OnControl(_ *network.RouterView, m *network.ControlMessage) network.ControlVerdict {
	if _, lsa := m.Payload.(*LSA); lsa || b.dropped {
		return network.CtrlForward
	}
	b.dropped = true
	return network.CtrlDrop
}

// TestAlertSurvivesSelectiveRelay pins robust flooding under selective
// forwarding: on the ring a–f–r–s, where a–f–r is fast and r–s–a slow, the
// faulty f drops a's first alert and relays its second, so r hears the
// second first. Every correct router must still exclude both segments.
func TestAlertSurvivesSelectiveRelay(t *testing.T) {
	g := topology.NewGraph()
	a, f, r, s := g.AddNode("a"), g.AddNode("f"), g.AddNode("r"), g.AddNode("s")
	fast, slow := topology.DefaultLinkAttrs(), topology.DefaultLinkAttrs()
	fast.Delay, slow.Delay = time.Millisecond, 20*time.Millisecond
	g.AddDuplex(a, f, fast)
	g.AddDuplex(f, r, fast)
	g.AddDuplex(r, s, slow)
	g.AddDuplex(s, a, slow)
	net := network.New(g, network.Options{Seed: 5})
	proto := Attach(net, consensus.NewService(net), Timers{Delay: time.Second, Hold: 2 * time.Second})
	if !proto.RunUntilConverged(time.Minute) {
		t.Fatal("routing did not converge")
	}
	net.Router(f).SetBehavior(&firstAlertDropper{})
	older, newer := topology.Segment{s, a, f}, topology.Segment{f, a, s}
	net.Scheduler().At(net.Now(), func() {
		proto.Daemon(a).AnnounceSuspicion(older)
		proto.Daemon(a).AnnounceSuspicion(newer)
	})
	net.Run(net.Now() + 10*time.Second)
	for _, id := range []packet.NodeID{a, r, s} {
		excl := proto.Daemon(id).Exclusions()
		if !excl.Has(older) || !excl.Has(newer) {
			t.Fatalf("correct router %v excludes %v", id, excl.Segments())
		}
	}
}

func TestHoldTimerBatchesRecomputations(t *testing.T) {
	g := topology.Abilene()
	net := network.New(g, network.Options{Seed: 5})
	proto := Attach(net, consensus.NewService(net), Timers{Delay: time.Second, Hold: 10 * time.Second})
	if !proto.RunUntilConverged(2 * time.Minute) {
		t.Fatal("no convergence")
	}
	den, _ := g.Lookup("Denver")
	kc, _ := g.Lookup("KansasCity")
	ind, _ := g.Lookup("Indianapolis")
	hou, _ := g.Lookup("Houston")

	d := proto.Daemon(den)
	var recomputes []time.Duration
	d.OnRecompute(func(at time.Duration) { recomputes = append(recomputes, at) })

	base := net.Now()
	d.AnnounceSuspicion(topology.Segment{den, kc, ind})
	net.Run(base + 100*time.Millisecond)
	d.AnnounceSuspicion(topology.Segment{den, kc, hou})
	net.Run(base + time.Minute)

	if len(recomputes) == 0 {
		t.Fatal("no recomputation happened")
	}
	for i := 1; i < len(recomputes); i++ {
		if gap := recomputes[i] - recomputes[i-1]; gap < 10*time.Second {
			t.Fatalf("recomputations %v apart, hold is 10s", gap)
		}
	}
	// First recompute at least Delay after the trigger.
	if recomputes[0] < base+time.Second {
		t.Fatalf("recompute at %v, before delay elapsed (base %v)", recomputes[0], base)
	}
}

func TestTableNextHopFallback(t *testing.T) {
	g := topology.Line(3)
	tbl := ComputeTable(g, 1, NewExclusions())
	// Unknown inbound neighbor falls back to the local row.
	nh, ok := tbl.NextHop(99, 2)
	if !ok || nh != 2 {
		t.Fatalf("fallback next hop = %v/%v", nh, ok)
	}
	// So does a negative one, and a destination outside the table — either
	// way round, as a fabricated packet or a corrupt trace can carry — is
	// unroutable, not a panic.
	if nh, ok := tbl.NextHop(-1, 2); !ok || nh != 2 {
		t.Fatalf("negative inbound neighbor: next hop = %v/%v", nh, ok)
	}
	for _, dst := range []packet.NodeID{-1, 3, 99} {
		if nh, ok := tbl.NextHop(0, dst); ok || nh != -1 {
			t.Fatalf("NextHop(0, %v) = %v/%v, want -1/false", dst, nh, ok)
		}
	}
}

// Property: under random segment exclusions on random connected graphs,
// forwarding never loops — every (src, dst) either reaches its destination
// or is cleanly unroutable.
func TestNoLoopsUnderRandomExclusions(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		spec := topology.GeneratorSpec{
			Name: "p", Nodes: 14, Links: 22, MaxDegree: 6, Seed: int64(trial + 1),
		}
		g := topology.Generate(spec)
		rng := rand.New(rand.NewSource(int64(trial) + 99))
		excl := NewExclusions()
		// Random link and transition exclusions.
		links := g.Links()
		for i := 0; i < 4; i++ {
			l := links[rng.Intn(len(links))]
			excl.Add(topology.Segment{l.From, l.To})
		}
		for i := 0; i < 4; i++ {
			l := links[rng.Intn(len(links))]
			for _, w := range g.Neighbors(l.To) {
				if w != l.From {
					excl.Add(topology.Segment{l.From, l.To, w})
					break
				}
			}
		}
		tables := make(map[packet.NodeID]*Table)
		for _, id := range g.Nodes() {
			tables[id] = ComputeTable(g, id, excl)
		}
		for _, src := range g.Nodes() {
			for _, dst := range g.Nodes() {
				if src == dst {
					continue
				}
				p := PathFromTables(tables, src, dst, 3*g.NumNodes())
				if p == nil {
					continue // unroutable under exclusions: acceptable
				}
				if p[len(p)-1] != dst {
					t.Fatalf("trial %d: path %v does not end at %v", trial, p, dst)
				}
				// The delivered path must not traverse an excluded link or
				// forbidden transition.
				for i := 0; i+1 < len(p); i++ {
					if excl.LinkExcluded(p[i], p[i+1]) {
						t.Fatalf("trial %d: path %v uses excluded link", trial, p)
					}
				}
				for i := 0; i+2 < len(p); i++ {
					if excl.TransitionForbidden(p[i], p[i+1], p[i+2]) {
						t.Fatalf("trial %d: path %v uses forbidden transition", trial, p)
					}
				}
			}
		}
	}
}

// TestRoutingWalksArePaths pins the one stable-state tie rule (§4.1: "a
// router can predict the path that a packet will take in the stable
// state"): with no exclusion, every walk through the routers' tables is
// the path CSR.Paths predicts, and the path table's next hop is the
// lowest-ID of the equal-cost first hops (equalCostHops). Equal-cost ties
// are common on these graphs — the test requires some — and a table that
// broke them another way than routing's lowest first hop would accuse
// routers for following their own tables.
func TestRoutingWalksArePaths(t *testing.T) {
	type tc struct {
		name  string
		graph *topology.Graph
	}
	cases := []tc{
		{"isp-500-20-7", topology.ISP(topology.ISPSpec{Nodes: 500, PoPs: 20, Seed: 7})},
		{"sprintlink", topology.Generate(topology.SprintlinkSpec())},
		{"ebone", topology.Generate(topology.EBONESpec())},
		{"abilene", topology.Abilene()},
	}
	rng := rand.New(rand.NewSource(36))
	for seed := int64(1); seed <= 20; seed++ {
		spec := topology.ISPSpec{Nodes: 16 + rng.Intn(48), PoPs: 2 + rng.Intn(4), Seed: seed}
		cases = append(cases, tc{fmt.Sprintf("isp-%d-%d-%d", spec.Nodes, spec.PoPs, seed), topology.ISP(spec)})
	}
	ties := 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := c.graph
			table := g.CSR().Paths()
			tables := make(map[packet.NodeID]*Table, g.NumNodes())
			excl := NewExclusions()
			for _, r := range g.Nodes() {
				tables[r] = ComputeTable(g, r, excl)
			}
			for _, dst := range g.Nodes() {
				hops := equalCostHops(g.CSR(), dst)
				for _, src := range g.Nodes() {
					if src == dst {
						continue
					}
					if walk, want := PathFromTables(tables, src, dst, g.NumNodes()), table.Path(src, dst); !slices.Equal(walk, want) {
						t.Fatalf("%v→%v: routing walks %v, the path table predicts %v", src, dst, walk, want)
					}
					if h, want := hops[src], table.NextHop(src, dst); len(h) == 0 || h[0] != want {
						t.Fatalf("%v→%v: equal-cost first hops %v, the path table's next hop %v", src, dst, h, want)
					}
					if len(hops[src]) > 1 {
						ties++
					}
				}
			}
		})
	}
	if ties == 0 {
		t.Fatal("no pair has two equal-cost first hops: the tie rule went unexercised")
	}
}

// equalCostHops returns, for every router u, its neighbours on a least-cost
// path toward dst in ascending ID order (a CSR row is sorted): the v with
// cost(u,v) + dist(v,dst) = dist(u,dst), distances read off the shortest
// path tree rooted at dst (the graph is duplex with symmetric costs).
func equalCostHops(c *topology.CSR, dst packet.NodeID) [][]packet.NodeID {
	_, dist := c.ShortestPathTree(dst)
	hops := make([][]packet.NodeID, c.NumNodes())
	for u := range hops {
		if packet.NodeID(u) == dst {
			continue
		}
		for i := c.Off[u]; i < c.Off[u+1]; i++ {
			if v := c.To[i]; dist[v]+c.Cost[i] == dist[u] {
				hops[u] = append(hops[u], v)
			}
		}
	}
	return hops
}
