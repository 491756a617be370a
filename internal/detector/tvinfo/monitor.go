package tvinfo

import (
	"slices"
	"time"

	"routerwatch/internal/auth"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/summary"
	"routerwatch/internal/telemetry"
	"routerwatch/internal/topology"
)

// Env is the part of protocol.Env the segment monitor uses.
type Env interface {
	Graph() *topology.Graph
	Auth() *auth.Authority
	Hasher() packet.Hasher
	Tap(at packet.NodeID, fn func(network.Event))
}

// Recording is what every router's Monitor in one protocol deployment
// shares: how info(r, π, τ) is collected, independent of who exchanges and
// judges it.
type Recording struct {
	Env Env
	// Oracle predicts packet paths (§4.1). Protocols replace it after a
	// routing change; monitors read it on every packet.
	Oracle *PathOracle
	// Policy decides which structures a round's Summary carries.
	Policy Policy
	// Round is the validation interval τ packets are binned by.
	Round time.Duration
	// Sampling, in (0,1), records only a keyed hash-range subsample per
	// segment (§5.2.1), the same subset at every router of the segment;
	// any other value records everything.
	Sampling float64
	// Fingerprints counts recorded packets (nil-safe).
	Fingerprints *telemetry.Counter
}

// Watch is one router's recording state for one watched segment. Protocols
// embed it by value in their own per-segment state and hand its address to
// Monitor.Watch.
type Watch struct {
	Seg topology.Segment
	Key topology.SegmentKey
	// Pos is this router's index in Seg: 0 is the segment's source, len-1
	// its sink.
	Pos int

	// links are the segment links from Pos to the sink. Packets are binned
	// into rounds by predicted arrival time at the sink so every router of
	// the segment agrees on the binning.
	links  []topology.Link
	sample summary.SampleRange
	policy Policy
	// cur holds this router's summaries keyed by round index.
	cur map[int]*Summary
}

// Monitor is one router's traffic recorder (the Traffic Summary Generator
// of §5.3.1): the router's single packet tap, feeding every segment the
// router watches.
type Monitor struct {
	rec     *Recording
	id      packet.NodeID
	watches []*Watch
}

// Start binds the monitor to router id and installs its packet tap.
func (m *Monitor) Start(rec *Recording, id packet.NodeID) {
	m.rec, m.id = rec, id
	rec.Env.Tap(id, m.onEvent)
}

// Watch initialises w as this router's watch on seg and starts recording
// into it. It reports false, leaving w unwatched, when the router is not on
// seg.
func (m *Monitor) Watch(w *Watch, seg topology.Segment) bool {
	pos := slices.Index(seg, m.id)
	if pos < 0 {
		return false
	}
	*w = Watch{
		Seg:    seg,
		Key:    topology.Key(seg),
		Pos:    pos,
		sample: summary.SampleRange{Fraction: 1},
		policy: m.rec.Policy,
		cur:    make(map[int]*Summary),
	}
	g := m.rec.Env.Graph()
	for i := pos; i+1 < len(seg); i++ {
		if l, ok := g.Link(seg[i], seg[i+1]); ok {
			w.links = append(w.links, l)
		}
	}
	if f := m.rec.Sampling; f > 0 && f < 1 {
		k0, k1 := m.rec.Env.Auth().SamplingKeys(seg[0], seg[len(seg)-1])
		w.sample = summary.SampleRange{K0: k0, K1: k1, Fraction: f}
	}
	m.watches = append(m.watches, w)
	return true
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
// recorded yet.
func (w *Watch) Summary(n int) *Summary {
	s := w.cur[n]
	if s == nil {
		s = NewSummary(w.policy)
		w.cur[n] = s
	}
	return s
}

// Close forgets round n once the protocol has judged it.
func (w *Watch) Close(n int) { delete(w.cur, n) }

// onEvent records the router's local packet events: traffic it forwards
// along a watched segment (source and interior positions, on dequeue toward
// the next router of the segment) and traffic it receives from one (sink
// position, on receive from the previous router).
func (m *Monitor) onEvent(ev network.Event) {
	switch ev.Kind {
	case network.EvDequeue:
		for _, w := range m.watches {
			if w.Pos < len(w.Seg)-1 && w.Seg[w.Pos+1] == ev.Peer {
				m.record(w, ev.Packet, ev.Time)
			}
		}
	case network.EvReceive:
		for _, w := range m.watches {
			if w.Pos == len(w.Seg)-1 && w.Seg[w.Pos-1] == ev.Peer {
				m.record(w, ev.Packet, ev.Time)
			}
		}
	}
}

// record adds a packet seen at virtual time now to w's summary for the round
// its predicted sink arrival falls in, if the packet's predicted path follows
// the segment through this router's position and the segment's sample range
// selects it.
func (m *Monitor) record(w *Watch, p *packet.Packet, now time.Duration) {
	if !m.rec.Oracle.OnSegment(p.Src, p.Dst, p.Flow, w.Seg, m.id, w.Pos) {
		return
	}
	fp := m.rec.Env.Hasher().Fingerprint(p)
	if !w.sample.Selects(fp) {
		return
	}
	sinkTS := now + w.transit(p.Size)
	w.Summary(int(sinkTS/m.rec.Round)).RecordTimed(fp, p.Size, sinkTS)
	m.rec.Fingerprints.Inc()
}
