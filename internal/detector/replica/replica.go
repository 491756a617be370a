// Package replica implements the centralized failure detector of §2.3
// (Fig 2.1): an identical replica r′ of a monitored router r receives the
// same input traffic (observed promiscuously) and the detector compares the
// two output streams. Any discrepancy means either the monitored router or
// the detector itself is faulty.
//
// This is the "ideal" detector the distributed protocols approximate. The
// paper rejects it for deployment — it needs duplicate hardware per router
// and bit-exact determinism (routing-table updates, queue randomization must
// be synchronized) — but it is the semantic reference: a traffic-validation
// detector is correct insofar as it flags exactly what the replica would.
// The implementation doubles as the test oracle for the other protocols.
package replica

import (
	"fmt"
	"time"

	"routerwatch/internal/detector"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/queue"
	"routerwatch/internal/sim"
	"routerwatch/internal/summary"
	"routerwatch/internal/topology"
)

// Options configures a replica detector.
type Options struct {
	// Round is how often the output streams are compared.
	Round time.Duration
	// Tolerance absorbs boundary effects: packets in flight inside r (or
	// serialized differently) at a comparison instant. In a bit-exact
	// replica this can be a handful of packets.
	Tolerance int
	// Sink receives suspicions.
	Sink detector.Sink
}

// Detector shadows one router with a deterministic replica.
type Detector struct {
	net    *network.Network
	target packet.NodeID
	opts   Options

	// paths is the stable-state path table static forwarding reads; the
	// replica forwards by it too (§2.3: "the behavior of a router is
	// deterministic").
	paths *topology.PathTable

	// replica state: one queue model + forwarding per output interface,
	// fed by the tapped inputs of the monitored router.
	queues map[packet.NodeID]*replicaIface

	// outReal collects r's actual per-interface output fingerprints.
	outReal map[packet.NodeID]*summary.FPSet
	// outReplica collects the replica's predicted outputs.
	outReplica map[packet.NodeID]*summary.FPSet

	round int
	// Discrepancies counts rounds with detected divergence.
	Discrepancies int
}

// replicaIface models one output interface of the replica: a queue plus
// the serialization clock of the real router's interface (network.iface):
// freeAt is when the line finishes the packet it is sending, and drainEv,
// live only while something waits, dequeues the next one then.
type replicaIface struct {
	link    topology.Link
	q       queue.Discipline
	freeAt  time.Duration
	drainEv sim.Handle
	cbDrain sim.Callback
}

// Attach deploys a replica detector shadowing target. The replica observes
// target's inputs in promiscuous mode (modeled as taps on the EvReceive
// events) and recomputes forwarding with the same deterministic tables.
func Attach(net *network.Network, target packet.NodeID, opts Options) *Detector {
	if opts.Round == 0 {
		opts.Round = time.Second
	}
	if opts.Sink == nil {
		opts.Sink = func(detector.Suspicion) {}
	}
	d := &Detector{
		net:        net,
		target:     target,
		opts:       opts,
		paths:      net.Graph().CSR().Paths(),
		queues:     make(map[packet.NodeID]*replicaIface),
		outReal:    make(map[packet.NodeID]*summary.FPSet),
		outReplica: make(map[packet.NodeID]*summary.FPSet),
	}
	g := net.Graph()
	for _, nb := range g.Neighbors(target) {
		link, _ := g.Link(target, nb)
		ifc := &replicaIface{link: link, q: queue.NewDropTail(link.QueueLimit)}
		ifc.cbDrain = func(any, int64) { d.drainReplica(ifc) }
		d.queues[nb] = ifc
		d.outReal[nb] = summary.NewFPSet()
		d.outReplica[nb] = summary.NewFPSet()
	}

	r := net.Router(target)
	r.AddTap(func(ev network.Event) {
		switch ev.Kind {
		case network.EvReceive:
			// The replica sees the same input and forwards it itself.
			d.replicaForward(ev.Packet)
		case network.EvDequeue:
			// r's observed output.
			d.outReal[ev.Peer].Add(net.Hasher().Fingerprint(ev.Packet))
		}
	})

	net.Scheduler().NewTicker(opts.Round, func() { d.compare() })
	return d
}

// replicaForward runs the replica's forwarding path for one input packet:
// TTL, next-hop lookup, enqueue (with identical drop-tail semantics) and
// serialized dequeue.
func (d *Detector) replicaForward(p *packet.Packet) {
	if p.Dst == d.target {
		return // consumed locally; not part of the output streams
	}
	if p.TTL <= 1 {
		return
	}
	ifc := d.queues[d.paths.NextHop(d.target, p.Dst)]
	if ifc == nil {
		return
	}
	q := p.Clone()
	q.TTL--
	sched := d.net.Scheduler()
	now := sched.Now()
	if now >= ifc.freeAt && !ifc.drainEv.Canceled() {
		// The line frees at this instant: the departure goes first, as on
		// the real interface.
		ifc.drainEv.Cancel()
		d.drainReplica(ifc)
	}
	if ifc.q.Enqueue(q, now) != queue.DropNone {
		return // the replica predicts a congestive drop here too
	}
	switch {
	case !ifc.drainEv.Canceled():
	case now >= ifc.freeAt:
		d.drainReplica(ifc)
	default:
		ifc.drainEv = sched.CallAfter(ifc.freeAt-now, ifc.cbDrain, nil, 0)
	}
}

// drainReplica starts serializing the head-of-line packet, which joins the
// replica's predicted output; a packet left waiting behind it schedules the
// next drain.
func (d *Detector) drainReplica(ifc *replicaIface) {
	sched := d.net.Scheduler()
	now := sched.Now()
	p := ifc.q.Dequeue(now)
	d.outReplica[ifc.link.To].Add(d.net.Hasher().Fingerprint(p))
	tx := ifc.link.TransmissionTime(p.Size)
	ifc.freeAt = now + tx
	if ifc.q.Len() > 0 {
		ifc.drainEv = sched.CallAfter(tx, ifc.cbDrain, nil, 0)
	}
}

// compare validates r's outputs against the replica's for the last round.
func (d *Detector) compare() {
	n := d.round
	d.round++
	now := d.net.Now()
	for _, nb := range d.net.Graph().Neighbors(d.target) {
		real, pred := d.outReal[nb], d.outReplica[nb]
		d.outReal[nb], d.outReplica[nb] = summary.NewFPSet(), summary.NewFPSet()
		onlyPred, onlyReal := pred.DiffCounts(real)
		// onlyPred: the replica forwarded it, r did not (drop/divert).
		// onlyReal: r emitted something the replica did not (fabrication
		// or modification).
		if onlyPred > d.opts.Tolerance || onlyReal > d.opts.Tolerance {
			d.Discrepancies++
			d.opts.Sink(detector.Suspicion{
				By:         d.target, // the detector is co-located with r
				Segment:    topology.Segment{d.target},
				Round:      n,
				At:         now,
				Kind:       detector.KindTrafficValidation,
				Confidence: 1,
				Detail: fmt.Sprintf("replica divergence on interface →%v: %d missing, %d unexpected",
					nb, onlyPred, onlyReal),
			})
		}
	}
}
