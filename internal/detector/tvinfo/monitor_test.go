package tvinfo

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"routerwatch/internal/auth"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/sim"
	"routerwatch/internal/telemetry"
	"routerwatch/internal/topology"
)

// tapEnv is the monitor's environment with the taps exposed, so a test
// plays a router's packet events straight into its monitor. Its clock is
// sched, for the tests that drive rounds.
type tapEnv struct {
	g     *topology.Graph
	au    *auth.Authority
	taps  map[packet.NodeID]func(network.Event)
	sched *sim.Scheduler
}

func (e *tapEnv) Graph() *topology.Graph { return e.g }
func (e *tapEnv) Auth() *auth.Authority  { return e.au }
func (e *tapEnv) Hasher() packet.Hasher  { return packet.NewHasher(1, 2) }
func (e *tapEnv) Tap(at packet.NodeID, fn func(network.Event)) {
	e.taps[at] = fn
}
func (e *tapEnv) Now() time.Duration               { return e.sched.Now() }
func (e *tapEnv) After(d time.Duration, fn func()) { e.sched.After(d, fn) }
func (e *tapEnv) Every(d time.Duration, fn func()) *sim.Ticker {
	return e.sched.NewTicker(d, fn)
}

// Line(5) is 0-1-2-3-4 with the default 100 Mb/s, 2 ms links: a 1000-byte
// packet takes 80 µs + 2 ms per hop.
const (
	testSize  = 1000
	testHop   = 2080 * time.Microsecond
	testRound = time.Second
)

// lineSegments is g's segment table under Π2's rule at k=1: on a line,
// every 3-segment, ⟨1,2,3⟩ among them.
func lineSegments(g *topology.Graph) *topology.SegmentTable {
	return topology.MonitorSets(g.CSR().Paths(), 1, topology.ModeNodes)
}

// watch makes w monitor m's watch on seg, a segment of the deployment's
// table.
func watch(m *Monitor, w *Watch, seg topology.Segment) bool {
	sid, ok := m.rec.Segments.ID(seg)
	return ok && m.Watch(w, sid)
}

// watchLine deploys a monitor on every router of π = ⟨1,2,3⟩ and returns
// the environment and each router's watch.
func watchLine(sampling float64) (*tapEnv, map[packet.NodeID]*Watch) {
	g := topology.Line(5)
	env := &tapEnv{g: g, au: auth.NewAuthority(7), taps: make(map[packet.NodeID]func(network.Event))}
	rec := &Recording{
		Env:      env,
		Oracle:   g.CSR().Paths(),
		Segments: lineSegments(g),
		Policy:   PolicyTimeliness,
		Round:    testRound,
		Sampling: sampling,
	}
	seg := topology.Segment{1, 2, 3}
	watches := make(map[packet.NodeID]*Watch)
	for _, id := range seg {
		m, w := new(Monitor), new(Watch)
		m.Start(rec, id)
		if !watch(m, w, seg) {
			panic("router not on its own segment")
		}
		watches[id] = w
	}
	return env, watches
}

func TestMonitorRecording(t *testing.T) {
	type event struct {
		at       packet.NodeID // router whose tap sees the event
		kind     network.EventKind
		peer     packet.NodeID
		src, dst packet.NodeID
		t        time.Duration
	}
	type recorded struct {
		at    packet.NodeID
		round int
		ts    time.Duration
	}
	const t0 = 100 * time.Millisecond
	// A packet dequeued at the source this long before the round boundary
	// is predicted to reach the sink after it.
	const straddle = testRound - testHop
	cases := []struct {
		name   string
		events []event
		want   []recorded
	}{
		{"source dequeue toward seg[1] records at predicted sink arrival",
			[]event{{1, network.EvDequeue, 2, 0, 4, t0}},
			[]recorded{{1, 0, t0 + 2*testHop}}},
		{"interior dequeue toward seg[2] records at predicted sink arrival",
			[]event{{2, network.EvDequeue, 3, 0, 4, t0}},
			[]recorded{{2, 0, t0 + testHop}}},
		{"sink dequeue toward its next hop is not segment traffic",
			[]event{{3, network.EvDequeue, 4, 0, 4, t0}}, nil},
		{"dequeue toward a router off the segment is ignored",
			[]event{{2, network.EvDequeue, 1, 4, 0, t0}}, nil},
		{"receive from seg[pos-1] records only at the sink, at arrival time",
			[]event{
				{1, network.EvReceive, 0, 0, 4, t0},
				{2, network.EvReceive, 1, 0, 4, t0},
				{3, network.EvReceive, 2, 0, 4, t0},
			},
			[]recorded{{3, 0, t0}}},
		{"a packet whose predicted path leaves π is ignored",
			[]event{
				{1, network.EvDequeue, 2, 0, 2, t0}, // 0-1-2 ends inside π
				{3, network.EvReceive, 2, 2, 4, t0}, // 2-3-4 enters inside π
				{1, network.EvDequeue, 2, 4, 0, t0}, // 4→0 runs against π
			}, nil},
		{"predicted arrival past the boundary lands in the next round at both ends",
			[]event{
				{1, network.EvDequeue, 2, 0, 4, straddle},
				{3, network.EvReceive, 2, 0, 4, straddle + 2*testHop},
			},
			[]recorded{{1, 1, straddle + 2*testHop}, {3, 1, straddle + 2*testHop}}},
	}
	for _, tc := range cases {
		env, watches := watchLine(0)
		for _, ev := range tc.events {
			env.taps[ev.at](network.Event{
				Time: ev.t, Router: ev.at, Kind: ev.kind, Peer: ev.peer,
				Packet: &packet.Packet{Src: ev.src, Dst: ev.dst, Size: testSize},
			})
		}
		var got []recorded
		for _, id := range []packet.NodeID{1, 2, 3} {
			for _, n := range []int{0, 1} {
				if watches[id].Recorded(n) == nil {
					continue
				}
				for _, ts := range watches[id].Summary(n).Timed.TSs {
					got = append(got, recorded{id, n, ts})
				}
			}
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: recorded %v, want %v", tc.name, got, tc.want)
		}
	}

	// A sample range of ½ keeps a proper subset, and the same one at both
	// ends of π.
	env, watches := watchLine(0.5)
	const packets = 400
	for i := 0; i < packets; i++ {
		p := &packet.Packet{Src: 0, Dst: 4, Size: testSize, Seq: uint32(i)}
		env.taps[1](network.Event{Time: t0, Router: 1, Kind: network.EvDequeue, Peer: 2, Packet: p})
		env.taps[3](network.Event{Time: t0 + 2*testHop, Router: 3, Kind: network.EvReceive, Peer: 2, Packet: p})
	}
	src, sink := watches[1].Summary(0).FPs, watches[3].Summary(0).FPs
	if n := src.Len(); n == 0 || n == packets {
		t.Fatalf("sampling ½ kept %d of %d packets at the source", n, packets)
	}
	if lost, fabricated := src.DiffCounts(sink); lost != 0 || fabricated != 0 || sink.Len() != src.Len() {
		t.Fatalf("ends sampled different subsets: %d only at source, %d only at sink", lost, fabricated)
	}
}

// TestForgedAddressesRecordNothing: a fabricator, or a corrupt trace, can put
// any address in a packet. One outside the path table has no predicted path,
// so every router of π ignores it — on either event kind, at any position.
func TestForgedAddressesRecordNothing(t *testing.T) {
	env, watches := watchLine(0)
	for _, addr := range [][2]packet.NodeID{{-1, 4}, {0, -7}, {0, 5}, {math.MaxInt32, 4}, {math.MinInt32, math.MaxInt32}} {
		p := &packet.Packet{Src: addr[0], Dst: addr[1], Size: testSize}
		for _, id := range []packet.NodeID{1, 2, 3} {
			env.taps[id](network.Event{Router: id, Kind: network.EvDequeue, Peer: id + 1, Packet: p})
			env.taps[id](network.Event{Router: id, Kind: network.EvReceive, Peer: id - 1, Packet: p})
		}
	}
	for id, w := range watches {
		if s := w.Recorded(0); s != nil {
			t.Errorf("router %v recorded %d forged packets", id, s.Counter.Packets)
		}
	}
}

// TestRecordingAllocatesNothing pins the per-packet path: a packet of a pair
// the route memo knows, recorded into a round whose summary is open and
// whose chunks the round before gave back, costs no allocation at either
// end of the segment.
func TestRecordingAllocatesNothing(t *testing.T) {
	g := topology.Line(5)
	env := &tapEnv{g: g, au: auth.NewAuthority(7), taps: make(map[packet.NodeID]func(network.Event))}
	rec := &Recording{Env: env, Oracle: g.CSR().Paths(), Segments: lineSegments(g), Policy: PolicyContent, Round: testRound}
	seg := topology.Segment{1, 2, 3}
	var watches []*Watch
	for _, id := range []packet.NodeID{1, 3} {
		m, w := new(Monitor), new(Watch)
		m.Start(rec, id)
		watch(m, w, seg)
		watches = append(watches, w)
	}
	p := &packet.Packet{Src: 0, Dst: 4, Size: testSize}
	events := func(now time.Duration) {
		p.Seq++
		env.taps[1](network.Event{Time: now, Router: 1, Kind: network.EvDequeue, Peer: 2, Packet: p})
		env.taps[3](network.Event{Time: now + 2*testHop, Router: 3, Kind: network.EvReceive, Peer: 2, Packet: p})
	}
	// Round 0 fills the memo and records 1000 packets into chunks its read
	// gives back; round 1 records into them.
	for i := 0; i < 1000; i++ {
		events(0)
	}
	for _, w := range watches {
		w.Summary(0).FPs.Encode()
		w.Close(0)
	}
	events(testRound)
	if n := testing.AllocsPerRun(500, func() { events(testRound) }); n != 0 {
		t.Fatalf("recording a packet of a known pair into recycled chunks: %v allocations, want 0", n)
	}
}

// TestRecordingRecyclesChunks pins the deployment's chunk pool under steady
// traffic on a small topology. Each round is read one round late, so two
// rounds hold chunks at once, and each round needs more chunks than one
// carve holds; still, from the third round on, a round records only into
// chunks that reads of earlier rounds gave back.
func TestRecordingRecyclesChunks(t *testing.T) {
	g := topology.Line(5)
	env := &tapEnv{g: g, au: auth.NewAuthority(7), taps: make(map[packet.NodeID]func(network.Event))}
	rec := &Recording{Env: env, Oracle: g.CSR().Paths(), Segments: lineSegments(g), Policy: PolicyContent, Round: testRound}
	seg := topology.Segment{1, 2, 3}
	var watches []*Watch
	for _, id := range seg {
		m, w := new(Monitor), new(Watch)
		m.Start(rec, id)
		watch(m, w, seg)
		watches = append(watches, w)
	}
	const perRound = 1400 // 22 chunks at each of the three routers, more than a carve
	p := &packet.Packet{Src: 0, Dst: 4, Size: testSize}
	for n := 0; n < 8; n++ {
		carved := rec.scratch.Chunks()
		start := time.Duration(n)*testRound + 10*time.Millisecond
		for i := 0; i < perRound; i++ {
			p.Seq++
			now := start + time.Duration(i)*500*time.Microsecond
			env.taps[1](network.Event{Time: now, Router: 1, Kind: network.EvDequeue, Peer: 2, Packet: p})
			env.taps[2](network.Event{Time: now + testHop, Router: 2, Kind: network.EvDequeue, Peer: 3, Packet: p})
			env.taps[3](network.Event{Time: now + 2*testHop, Router: 3, Kind: network.EvReceive, Peer: 2, Packet: p})
		}
		if n >= 2 && rec.scratch.Chunks() != carved {
			t.Fatalf("round %d carved %d chunks, want none: earlier reads gave back enough",
				n, rec.scratch.Chunks()-carved)
		}
		if n == 0 {
			continue
		}
		for i, w := range watches {
			if got := w.Summary(n - 1).FPs.Fingerprints(); len(got) != perRound {
				t.Fatalf("round %d at %v: read %d fingerprints, want %d", n-1, seg[i], len(got), perRound)
			}
			w.Close(n - 1)
		}
	}
	if held := rec.scratch.Chunks(); held < 2*3*22 {
		t.Fatalf("the pool carved %d chunks, fewer than two rounds record: the pin above is vacuous", held)
	}
}

// TestRouteMemoBounded: source addresses are the sender's to choose, so a
// router shown more of them than the memo holds must not keep them all —
// and must still record the pair it knows afterwards. The instruments count
// every miss filled and every full memo dropped.
func TestRouteMemoBounded(t *testing.T) {
	g := topology.Line(5)
	env := &tapEnv{g: g, au: auth.NewAuthority(7), taps: make(map[packet.NodeID]func(network.Event))}
	reg := telemetry.NewRegistry()
	rec := &Recording{
		Env: env, Oracle: g.CSR().Paths(), Segments: lineSegments(g), Policy: PolicyFlow, Round: testRound,
		RouteFills: reg.Counter("fills"), RouteResets: reg.Counter("resets"),
	}
	m, w := new(Monitor), new(Watch)
	m.Start(rec, 1)
	watch(m, w, topology.Segment{1, 2, 3})
	dequeue := func(src packet.NodeID) {
		p := &packet.Packet{Src: src, Dst: 4, Size: testSize}
		env.taps[1](network.Event{Router: 1, Kind: network.EvDequeue, Peer: 2, Packet: p})
	}
	const spoofed = maxRoutes + 100
	for i := 0; i < spoofed; i++ {
		dequeue(packet.NodeID(1000 + i))
		if len(m.routes) > maxRoutes {
			t.Fatalf("memo holds %d entries after %d spoofed sources, bound is %d", len(m.routes), i+1, maxRoutes)
		}
	}
	dequeue(0)
	if got := w.Summary(0).Counter.Packets; got != 1 {
		t.Fatalf("recorded %d packets of the known pair after the memo was dropped, want 1", got)
	}
	if fills, resets := rec.RouteFills.Value(), rec.RouteResets.Value(); fills != spoofed+1 || resets != 1 {
		t.Fatalf("counted %d fills and %d resets, want %d and 1", fills, resets, spoofed+1)
	}
}

// TestDriveWindow pins the deployment's round clock: one pending event
// however many routers it serves, boundaries on the multiples of Round,
// exchange(n) at the boundary that closes round n and judge(n) the timeout
// later, and the window Admits answers in between. Attached at 1.3 s, the
// clock first closes round 1 at 2 s; round 0, whose bin closed before
// attach, is never admitted.
func TestDriveWindow(t *testing.T) {
	const attach, timeout = 1300 * time.Millisecond, testRound / 4
	s := sim.New()
	s.RunUntil(attach)
	rec := &Recording{Env: &tapEnv{sched: s}, Round: testRound}
	var got []string
	rec.Drive(timeout, func(n int) {
		got = append(got, fmt.Sprintf("exchange %d at %v", n, s.Now()))
	}, func(n int) {
		got = append(got, fmt.Sprintf("judge %d at %v", n, s.Now()))
	})
	if n := s.Pending(); n != 1 {
		t.Fatalf("Drive left %d events pending, want 1", n)
	}
	// admitted lists the rounds in [-1, 3] that Admits lets in.
	admitted := func() []int {
		var in []int
		for n := -1; n <= 3; n++ {
			if rec.Admits(n) {
				in = append(in, n)
			}
		}
		return in
	}
	windows := []struct {
		at   time.Duration
		want []int
	}{
		{attach, []int{1}},
		{2 * testRound, []int{1, 2}},
		{2*testRound + timeout, []int{2}},
		{3*testRound + timeout, []int{3}},
	}
	for _, w := range windows {
		s.RunUntil(w.at)
		if got := admitted(); !reflect.DeepEqual(got, w.want) {
			t.Errorf("at %v Admits lets in rounds %v, want %v", w.at, got, w.want)
		}
	}
	want := []string{
		"exchange 1 at 2s", "judge 1 at 2.25s",
		"exchange 2 at 3s", "judge 2 at 3.25s",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the clock fired\n%v\nwant\n%v", got, want)
	}
}
