package tvinfo

import (
	"slices"
	"time"

	"routerwatch/internal/auth"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/sim"
	"routerwatch/internal/summary"
	"routerwatch/internal/telemetry"
	"routerwatch/internal/topology"
)

// Env is the part of protocol.Env the segment monitor and the round clock
// use.
type Env interface {
	Graph() *topology.Graph
	Auth() *auth.Authority
	Hasher() packet.Hasher
	Tap(at packet.NodeID, fn func(network.Event))
	Now() time.Duration
	After(d time.Duration, fn func())
	Every(interval time.Duration, fn func()) *sim.Ticker
}

// Recording is what every router's Monitor in one protocol deployment
// shares: how info(r, π, τ) is collected, and the round clock that closes
// each round for every router at once (§4.2.1).
type Recording struct {
	Env Env
	// Oracle is the path table that predicts packet paths (§4.1).
	// Protocols replace it after a routing change; monitors read it on
	// every packet.
	Oracle *topology.PathTable
	// Policy decides which structures a round's Summary carries.
	Policy Policy
	// Round is the validation interval τ packets are binned by.
	Round time.Duration
	// Sampling, in (0,1), records only a keyed hash-range subsample per
	// segment (§5.2.1), the same subset at every router of the segment;
	// any other value records everything.
	Sampling float64
	// Segments is the deployment's segment table: every Watch names one of
	// its segments, and a monitor probes it to find its watch on a window.
	Segments *topology.SegmentTable
	// Fingerprints counts recorded packets; RouteFills counts route-memo
	// misses filled and RouteResets memos dropped (all nil-safe).
	Fingerprints, RouteFills, RouteResets *telemetry.Counter

	// scratch holds the chunks every watch's fingerprint sets record into
	// until they are first read: the deployment's, single-goroutine like it.
	scratch summary.Scratch
	// links is the chunk the watches' links are carved from.
	links []topology.Link

	// ticks counts the round boundaries Drive has passed, the next round to
	// exchange; judged counts the rounds it has judged.
	ticks, judged int
}

// Drive starts the deployment's one round clock, a boundary at every
// multiple of Round after now: the boundary (n+1)τ, which closes round n,
// calls exchange(n), and the timeout µ later judge(n), each for every
// router. Packets are binned by absolute time, so the first round driven is
// the one in progress at attach, and earlier rounds are never admitted.
// Call it once, after every Start.
func (r *Recording) Drive(timeout time.Duration, exchange, judge func(n int)) {
	now := r.Env.Now()
	r.ticks = int(now / r.Round)
	r.judged = r.ticks
	tick := func() {
		n := r.ticks
		r.ticks++
		exchange(n)
		r.Env.After(timeout, func() {
			r.judged = n + 1
			judge(n)
		})
	}
	r.Env.After(time.Duration(r.ticks+1)*r.Round-now, func() {
		tick()
		r.Env.Every(r.Round, tick)
	})
}

// Admits reports whether a received round-n message can still count: n is
// in [judged, ticks]. A correct router's round-n message leaves at the
// boundary that closes n and is judged µ later; one round ahead allows a
// sender whose clock reaches the boundary first. Anything else is dropped
// before it costs a verification or a slot: rounds are not re-judged, and
// a protocol-faulty sender may sign any round, so the window bounds what a
// router holds for rounds in flight.
func (r *Recording) Admits(n int) bool { return r.judged <= n && n <= r.ticks }

// Watch is one router's recording state for one watched segment. Protocols
// embed it by value in their own per-segment state and hand its address to
// Monitor.Watch.
type Watch struct {
	Seg topology.Segment
	// Pos is this router's index in Seg: 0 is the segment's source, len-1
	// its sink.
	Pos int

	// order is the watch's rank among its monitor's watches.
	order int
	// links are the segment links from Pos to the sink, a view of the
	// Recording's link chunks. Packets are binned into rounds by predicted
	// arrival time at the sink so every router of the segment agrees on the
	// binning.
	links  []topology.Link
	sample summary.SampleRange
	rec    *Recording
	// open holds this router's summaries for the rounds not yet closed,
	// oldest first. Two or three are live at a time — a packet's bin is its
	// predicted sink arrival, never earlier than now, and the protocol
	// closes round n µ after the boundary (n+1)τ that ends its bin — so a
	// search is a compare or three.
	open []openRound
}

type openRound struct {
	n int
	s *Summary
}

// Monitor is one router's traffic recorder (the Traffic Summary Generator
// of §5.3.1): the router's single packet tap, feeding every segment the
// router watches.
type Monitor struct {
	rec     *Recording
	id      packet.NodeID
	watches []*Watch
	// ids holds each watch's segment ID, ascending: a binary search in it
	// finds the router's watch on a segment of rec.Segments. shapes lists
	// the distinct (segment length, router position) pairs the watches
	// have. Together they turn "which watched segments does this path
	// follow through here" into one probe per shape instead of a pass over
	// every watch.
	ids    []topology.SegmentID
	shapes []shape

	// routes memoises dispatch: for each address pair, the watches its
	// packets are recorded into here. It is filled against routesFor and
	// dropped when rec.Oracle is another table.
	routes    map[routeKey]route
	routesFor *topology.PathTable

	// The fill's scratch.
	forward, sink []*Watch
}

type shape struct{ len, pos int }

// routeKey is what the path table keys a predicted path on: the address
// pair.
type routeKey struct{ src, dst packet.NodeID }

// route is where a packet with one routeKey is recorded at this router. A
// segment is aligned at the router's one position on the predicted path, so
// every forwarding watch that matches continues to the path's next hop and
// every sink watch arrives from its previous one: a direction is a
// neighbour and a watch list, in Monitor.watches order.
type route struct {
	// A dequeue toward next is recorded into forward; a receive from prev
	// into sink. A neighbour is meaningful only beside a non-empty list.
	next, prev    packet.NodeID
	forward, sink []*Watch
}

// maxRoutes bounds the memo: addresses are the sender's to choose, and a
// thousand routers each remembering every pair they carried is memory the
// simulation would rather spend elsewhere, so a full memo is dropped and
// refills from live traffic. A miss costs a probe per shape, not a pass
// over the watches, so the memo only has to hold the pairs that repeat: a
// router of the 100-router mesh-forward workload sees 8 distinct pairs in
// the median and 157 at most over the whole run.
const maxRoutes = 512

// linkChunk sizes the Recording's link chunks.
const linkChunk = 1024

// Start binds the monitor to router id, sizes it for the router's monitoring
// set in rec.Segments, and installs its packet tap.
func (m *Monitor) Start(rec *Recording, id packet.NodeID) {
	m.rec, m.id = rec, id
	n := len(rec.Segments.Monitored(id))
	m.watches = make([]*Watch, 0, n)
	m.ids = make([]topology.SegmentID, 0, n)
	m.routes = make(map[routeKey]route)
	rec.Env.Tap(id, m.onEvent)
}

// Watch initialises w as this router's watch on segment sid of
// rec.Segments and starts recording into it. Segments are watched in
// ascending ID order, the order Monitored lists them in. It reports false,
// leaving w unwatched, when the router is not on the segment or sid does
// not follow the last ID watched (a segment listed twice).
func (m *Monitor) Watch(w *Watch, sid topology.SegmentID) bool {
	seg := m.rec.Segments.Segment(sid)
	pos := slices.Index(seg, m.id)
	if n := len(m.ids); pos < 0 || n > 0 && sid <= m.ids[n-1] {
		return false
	}
	*w = Watch{
		Seg:    seg,
		Pos:    pos,
		order:  len(m.watches),
		links:  m.rec.linksFrom(seg[pos:]),
		sample: summary.SampleRange{Fraction: 1},
		rec:    m.rec,
	}
	if f := m.rec.Sampling; f > 0 && f < 1 {
		k0, k1 := m.rec.Env.Auth().SamplingKeys(seg[0], seg[len(seg)-1])
		w.sample = summary.SampleRange{K0: k0, K1: k1, Fraction: f}
	}
	m.watches = append(m.watches, w)
	m.ids = append(m.ids, sid)
	if sh := (shape{len(seg), pos}); !slices.Contains(m.shapes, sh) {
		m.shapes = append(m.shapes, sh)
	}
	m.reset() // filled without w
	return true
}

// linksFrom returns the links along path, carved from the Recording's
// chunks: a link the graph lacks is left zero, and adds nothing to a
// transit time.
func (r *Recording) linksFrom(path topology.Path) []topology.Link {
	n := len(path) - 1
	if n <= 0 {
		return nil
	}
	if cap(r.links)-len(r.links) < n {
		r.links = make([]topology.Link, 0, max(linkChunk, n))
	}
	start := len(r.links)
	r.links = r.links[:start+n]
	g := r.Env.Graph()
	for i := range n {
		r.links[start+i], _ = g.Link(path[i], path[i+1])
	}
	return r.links[start : start+n : start+n]
}

// Find returns the rank, in the order Watch accepted them, of this router's
// watch on segment seg, and false if it watches no such segment: a protocol
// that keeps its per-segment state in that order indexes it here instead of
// keeping a second map by segment.
func (m *Monitor) Find(seg topology.Segment) (int, bool) {
	sid, ok := m.rec.Segments.ID(seg)
	if !ok {
		return 0, false
	}
	return slices.BinarySearch(m.ids, sid)
}

// transit predicts how long a size-byte packet takes from this router's
// dequeue to the sink's receive: per-link transmission plus propagation
// (queueing and processing jitter at interior routers are unpredictable and
// absorbed by the loss threshold). It is zero at the sink.
func (w *Watch) transit(size int) time.Duration {
	var d time.Duration
	for _, l := range w.links {
		d += l.Delay + l.TransmissionTime(size)
	}
	return d
}

// Summary returns this router's summary for round n, empty if nothing was
// recorded yet. The protocol may hand it to a peer, who reads it at its own
// judge event: a summary returned here is never reset or reused.
func (w *Watch) Summary(n int) *Summary {
	if s := w.Recorded(n); s != nil {
		return s
	}
	s := NewSummary(w.rec.Policy)
	if s.FPs != nil {
		s.FPs.UseScratch(&w.rec.scratch)
	}
	w.open = append(w.open, openRound{n, s})
	return s
}

// Recorded returns this router's summary for round n if the round is open —
// a packet was recorded into it, or Summary created it — and nil otherwise,
// without allocating: a round nothing happened in costs its reader nothing.
func (w *Watch) Recorded(n int) *Summary {
	for i := range w.open {
		if w.open[i].n == n {
			return w.open[i].s
		}
	}
	return nil
}

// Close forgets round n once the protocol has judged it.
func (w *Watch) Close(n int) {
	for i := range w.open {
		if w.open[i].n == n {
			w.open = slices.Delete(w.open, i, i+1)
			return
		}
	}
}

// onEvent records the router's local packet events: traffic it forwards
// along a watched segment (source and interior positions, on dequeue toward
// the next router of the segment) and traffic it receives from one (sink
// position, on receive from the previous router). A packet is recorded into
// a watch if its predicted path follows the segment through this router's
// position; which watches those are is one memo lookup.
func (m *Monitor) onEvent(ev network.Event) {
	var into []*Watch
	switch ev.Kind {
	case network.EvDequeue:
		if r := m.route(ev.Packet); r.next == ev.Peer {
			into = r.forward
		}
	case network.EvReceive:
		if r := m.route(ev.Packet); r.prev == ev.Peer {
			into = r.sink
		}
	}
	if len(into) == 0 {
		return
	}
	fp := m.rec.Env.Hasher().Fingerprint(ev.Packet)
	for _, w := range into {
		m.record(w, fp, ev.Packet.Size, ev.Time)
	}
}

// route returns where p's traffic key is recorded at this router.
func (m *Monitor) route(p *packet.Packet) route {
	oracle := m.rec.Oracle
	if oracle != m.routesFor || len(m.routes) >= maxRoutes {
		m.reset()
		m.routesFor = oracle
	}
	key := routeKey{p.Src, p.Dst}
	r, ok := m.routes[key]
	if !ok {
		r = m.fill(oracle.Path(p.Src, p.Dst))
		m.routes[key] = r
	}
	return r
}

// reset drops the route memo, counting it if it held anything.
func (m *Monitor) reset() {
	if len(m.routes) > 0 {
		clear(m.routes)
		m.rec.RouteResets.Inc()
	}
}

// fill computes the route of traffic predicted to follow path: the watches
// whose segment the path follows through this router's position. Each shape
// the router's watches have names one window of the path around the router;
// the window is a watched segment or it is not — one probe of the
// deployment's segment index and a binary search in the router's IDs — so a
// miss costs a probe per shape however many segments the router watches.
// (The scan this replaced asked the oracle about every watch;
// TestDispatchMatchesScan holds the two to the same answer.)
func (m *Monitor) fill(path topology.Path) route {
	m.rec.RouteFills.Inc()
	at := slices.Index(path, m.id)
	if at < 0 {
		return route{}
	}
	forward, sink := m.forward[:0], m.sink[:0]
	for _, sh := range m.shapes {
		start := at - sh.pos
		if start < 0 || start+sh.len > len(path) {
			continue
		}
		sid, ok := m.rec.Segments.ID(path[start : start+sh.len])
		if !ok {
			continue
		}
		i, ok := slices.BinarySearch(m.ids, sid)
		if !ok {
			continue
		}
		switch w := m.watches[i]; {
		case w.Pos != sh.pos:
		case w.Pos < len(w.Seg)-1:
			forward = append(forward, w)
		default:
			sink = append(sink, w)
		}
	}
	m.forward, m.sink = forward, sink
	byOrder := func(a, b *Watch) int { return a.order - b.order }
	slices.SortFunc(forward, byOrder)
	slices.SortFunc(sink, byOrder)

	n := len(forward)
	into := append(append(make([]*Watch, 0, n+len(sink)), forward...), sink...)
	r := route{forward: into[:n:n], sink: into[n:]}
	if n > 0 {
		r.next = path[at+1]
	}
	if len(sink) > 0 {
		r.prev = path[at-1]
	}
	return r
}

// record adds a packet seen at virtual time now to w's summary for the round
// its predicted sink arrival falls in, if the segment's sample range selects
// it.
func (m *Monitor) record(w *Watch, fp packet.Fingerprint, size int, now time.Duration) {
	if !w.sample.Selects(fp) {
		return
	}
	sinkTS := now + w.transit(size)
	w.Summary(int(sinkTS/m.rec.Round)).RecordTimed(fp, size, sinkTS)
	m.rec.Fingerprints.Inc()
}
