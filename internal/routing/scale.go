// Scale options for the routing substrate on internet-scale topologies.
//
// Under zero Options, Attach floods every LSA as its own control message
// and recomputes every router's table in its own event — fine for a dozen
// routers, quadratic pain for a thousand. Three opt-in mechanisms:
//
//   - StaggerRegions quantizes initial LSA origination to the router's
//     region (PoP) index instead of its router index, so a 1000-router
//     topology starts flooding within its region count in milliseconds
//     rather than a full second.
//   - BundleFlood batches re-flooding: LSAs accepted within floodHold of
//     each other leave as one bundle message per neighbor. Novelty is still
//     seq-gated per LSA at the receiver, so bundles terminate exactly like
//     per-LSA flooding.
//   - BatchCompute coalesces all recomputes that land on the same simulated
//     instant into one event: tables are prepared concurrently on the
//     runner pool (each prepare writes only daemon-private state, see
//     Daemon.prepare) and installed sequentially in router-ID order, which
//     fixes the installation order independent of worker interleaving.
//
// The options change which events exist and therefore the event-sequence
// numbering; runs with different Options are internally deterministic but
// not byte-comparable to each other. The golden fixtures pin the schedule
// zero Options emit.
package routing

import (
	"slices"
	"sort"
	"time"

	"routerwatch/internal/consensus"
	"routerwatch/internal/network"
	"routerwatch/internal/runner"
)

// KindLSABundle carries a batch of LSAs in one control message
// (Options.BundleFlood).
const KindLSABundle = "routing/lsab"

// LSABundle is the payload of a KindLSABundle message.
type LSABundle struct {
	LSAs []*LSA
}

// Options configures Attach.
type Options struct {
	// Timers are the OSPF delay/hold timers; zero means DefaultTimers.
	Timers Timers

	// StaggerRegions originates initial LSAs at (region index) ms instead of
	// (router index) ms: routers in the same region originate at the same
	// instant, in router-ID event order.
	StaggerRegions bool

	// BundleFlood collects accepted LSAs for floodHold and re-floods them as
	// one bundle per neighbor instead of one message per LSA.
	BundleFlood bool

	// BatchCompute coalesces same-instant table recomputes into one event,
	// preparing tables in parallel on GOMAXPROCS goroutines and installing
	// them in router-ID order.
	BatchCompute bool
}

// floodHold is the bundling delay of Options.BundleFlood.
const floodHold = time.Millisecond

// Attach creates and starts a daemon on every router. Initial LSAs flood at
// staggered start times; tables converge after the delay/hold timers.
// Suspicion alerts ride flood, the network's one robust-flooding service
// (the one its detectors flood on): a second service on the same network
// would take over the other's relay handler.
func Attach(net *network.Network, flood *consensus.Service, opts Options) *Protocol {
	if opts.Timers.Delay == 0 && opts.Timers.Hold == 0 {
		opts.Timers = DefaultTimers()
	}
	reg := net.Telemetry().Registry()
	p := &Protocol{net: net, flood: flood, opts: opts, tracer: net.Telemetry().Tracer(),
		recomputes: reg.Counter("rw_routing_recomputes_total"),
		nodeTables: reg.Counter("rw_routing_tables_total", "kernel", "node"),
		edgeTables: reg.Counter("rw_routing_tables_total", "kernel", "edge")}
	if opts.BatchCompute {
		p.due = make(map[time.Duration][]*Daemon)
	}
	for _, r := range net.Routers() {
		d := &Daemon{
			proto:  p,
			router: r,
			id:     r.ID(),
			lsdb:   make([]*LSA, net.Graph().NumNodes()),
			excl:   NewExclusions(),
			timers: opts.Timers,
			// Allow the very first computation to run immediately after
			// the delay timer regardless of hold.
			lastCompute: -opts.Timers.Hold,
		}
		r.HandleControl(KindLSA, d.handleLSA)
		r.HandleControl(KindLSABundle, d.handleLSABundle)
		flood.Subscribe(d.id, TopicAlert, d.onAlert)
		p.daemons = append(p.daemons, d)
	}
	// Origin LSAs, staggered to avoid a synchronized burst: per router by
	// default, per region under StaggerRegions.
	g := net.Graph()
	for i, d := range p.daemons {
		d := d
		at := time.Duration(i) * time.Millisecond
		if opts.StaggerRegions {
			at = time.Duration(g.Region(d.id)) * time.Millisecond
		}
		net.Scheduler().At(at, d.originateLSA)
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
		d.acceptLSA(lsa, m.From)
	}
}

// enqueueFlood defers re-flooding of a novel LSA to the next bundle flush.
// pending is the daemon's scratch: the flush sends an exact-size copy and
// keeps the backing array for the next bundle.
func (d *Daemon) enqueueFlood(lsa *LSA) {
	d.pending = append(d.pending, lsa)
	if d.flushQueued {
		return
	}
	d.flushQueued = true
	sched := d.proto.net.Scheduler()
	sched.At(sched.Now()+floodHold, d.flushPending)
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
	b := &LSABundle{LSAs: slices.Clone(d.pending)}
	clear(d.pending)
	d.pending = d.pending[:0]
	for _, nb := range d.proto.net.Graph().Neighbors(d.id) {
		d.proto.net.SendControlDirect(d.id, nb, KindLSABundle, b)
	}
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
