// The routing substrate's one schedule, shaped for internet-scale
// topologies and used on every graph:
//
//   - Origination is staggered by region: a router first originates its LSA
//     at (region index) ms, so routers of one region (PoP) originate at the
//     same instant, in router-ID event order, and a 1000-router topology
//     starts flooding within its region count in milliseconds. A graph
//     without regions tags every router region 0: all originate at t = 0.
//   - Floods are bundled: LSAs accepted within floodHold of each other
//     leave as one bundle message per neighbor. Novelty is seq-gated per LSA
//     at the receiver, so bundles terminate.
//   - Recomputes are batched: all recomputes that land on the same
//     simulated instant coalesce into one event, whose tables are prepared
//     concurrently on the runner pool (each prepare writes only
//     daemon-private state, see Daemon.prepare) and installed sequentially
//     in router-ID order, which fixes the installation order independent of
//     worker interleaving.
package routing

import (
	"sort"
	"time"

	"routerwatch/internal/consensus"
	"routerwatch/internal/network"
	"routerwatch/internal/runner"
)

// KindLSABundle is the control-message kind that floods link-state
// advertisements, a batch of them per message.
const KindLSABundle = "routing/lsab"

// LSABundle is the payload of a KindLSABundle message. The daemons carve
// bundles and their member lists from the Protocol's append-only chunks and
// never reuse one: a receiver may keep the member LSAs, and must not write
// to the list.
type LSABundle struct {
	LSAs []*LSA
}

// bundleChunk and memberChunk size the Protocol's chunks of LSA bundles and
// of their member lists.
const (
	bundleChunk = 256
	memberChunk = 4096
)

// floodHold is how long a daemon collects accepted LSAs before it floods
// them as one bundle.
const floodHold = time.Millisecond

// Attach creates and starts a daemon on every router, at the given OSPF
// delay/hold timers (zero means DefaultTimers). Initial LSAs flood at
// region-staggered start times; tables converge after the timers.
// Suspicion alerts ride flood, the network's one robust-flooding service
// (the one its detectors flood on): a second service on the same network
// would take over the other's relay handler.
func Attach(net *network.Network, flood *consensus.Service, timers Timers) *Protocol {
	if timers.Delay == 0 && timers.Hold == 0 {
		timers = DefaultTimers()
	}
	reg := net.Telemetry().Registry()
	p := &Protocol{net: net, flood: flood, tracer: net.Telemetry().Tracer(),
		recomputes: reg.Counter("rw_routing_recomputes_total"),
		lsas:       reg.Counter("rw_routing_lsas_total"),
		bundles:    reg.Counter("rw_routing_bundles_total"),
		nodeTables: reg.Counter("rw_routing_tables_total", "kernel", "node"),
		edgeTables: reg.Counter("rw_routing_tables_total", "kernel", "edge"),
		due:        make(map[time.Duration][]*Daemon)}
	for _, r := range net.Routers() {
		d := &Daemon{
			proto:  p,
			router: r,
			id:     r.ID(),
			lsdb:   make([]*LSA, net.Graph().NumNodes()),
			excl:   NewExclusions(),
			timers: timers,
			// Allow the very first computation to run immediately after
			// the delay timer regardless of hold.
			lastCompute: -timers.Hold,
		}
		d.flush = d.flushPending
		r.HandleControl(KindLSABundle, d.handleLSABundle)
		flood.Subscribe(d.id, TopicAlert, d.onAlert)
		net.Scheduler().At(time.Duration(net.Graph().Region(d.id))*time.Millisecond, d.originateLSA)
		p.daemons = append(p.daemons, d)
	}
	return p
}

// handleLSABundle processes a flooded LSA bundle: each member is accepted
// through the normal seq-gated path, and novel ones re-flood (bundled).
func (d *Daemon) handleLSABundle(m *network.ControlMessage) {
	b, ok := m.Payload.(*LSABundle)
	if !ok || b == nil {
		return
	}
	for _, lsa := range b.LSAs {
		d.acceptLSA(lsa)
	}
}

// enqueueFlood defers re-flooding of a novel LSA to the next bundle flush.
// pending is the daemon's scratch: the flush sends a carved copy and keeps
// the backing array for the next bundle.
func (d *Daemon) enqueueFlood(lsa *LSA) {
	d.pending = append(d.pending, lsa)
	if d.flushQueued {
		return
	}
	d.flushQueued = true
	sched := d.proto.net.Scheduler()
	sched.At(sched.Now()+floodHold, d.flush)
}

// flushPending sends everything accepted since the last flush as one bundle
// to every neighbor. Bundles go to all neighbors, including the ones the
// member LSAs arrived from — the echo is stale at the receiver (seq-gated in
// acceptLSA), so flooding still terminates.
func (d *Daemon) flushPending() {
	d.flushQueued = false
	if len(d.pending) == 0 {
		return
	}
	b := d.proto.carveBundle(d.pending)
	d.proto.bundles.Inc()
	clear(d.pending)
	d.pending = d.pending[:0]
	for _, nb := range d.proto.net.Graph().Neighbors(d.id) {
		d.proto.net.SendControlDirect(d.id, nb, KindLSABundle, b)
	}
}

// carveBundle returns a new bundle of a copy of lsas, both carved from the
// Protocol's append-only chunks: a flush costs no allocation of its own.
func (p *Protocol) carveBundle(lsas []*LSA) *LSABundle {
	if len(p.bundleChunk) == 0 {
		p.bundleChunk = make([]LSABundle, bundleChunk)
	}
	b := &p.bundleChunk[0]
	p.bundleChunk = p.bundleChunk[1:]
	if cap(p.memberChunk)-len(p.memberChunk) < len(lsas) {
		p.memberChunk = make([]*LSA, 0, max(memberChunk, len(lsas)))
	}
	start := len(p.memberChunk)
	p.memberChunk = append(p.memberChunk, lsas...)
	b.LSAs = p.memberChunk[start:len(p.memberChunk):len(p.memberChunk)]
	return b
}

// runBatch fires one coalesced recompute instant: it prepares the batch's
// tables concurrently (each prepare is confined to its daemon, so the
// fan-out is race-free) and installs them serially in router-ID order —
// the full join plus fixed installation order keep the run deterministic
// for any worker count.
func (p *Protocol) runBatch(at time.Duration) {
	batch := p.due[at]
	delete(p.due, at)
	sort.Slice(batch, func(i, j int) bool { return batch[i].id < batch[j].id })
	truth := p.net.Graph().CSR()
	runner.Do(0 /* GOMAXPROCS */, len(batch), func(i int) { batch[i].prepare(truth) })
	for _, d := range batch {
		d.install(at)
	}
}
