package routing

import (
	"time"

	"routerwatch/internal/consensus"
	"routerwatch/internal/detector"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/sim"
	"routerwatch/internal/telemetry"
	"routerwatch/internal/topology"
)

// TopicAlert is the consensus topic of the response's suspicion alerts: the
// payload is the suspected segment's key, signed by the announcer.
const TopicAlert = "routing/alert"

// LSA is a link-state advertisement: a router's view of its own adjacency.
type LSA struct {
	Origin    packet.NodeID
	Seq       uint64
	Neighbors []NeighborEntry
}

// NeighborEntry is one adjacency in an LSA.
type NeighborEntry struct {
	ID   packet.NodeID
	Cost int
}

// Daemon is the per-router routing process.
type Daemon struct {
	proto  *Protocol
	router *network.Router
	id     packet.NodeID

	// lsdb holds the newest LSA of each origin, indexed by origin; nil
	// where none was heard yet.
	lsdb []*LSA
	excl *Exclusions
	seq  uint64

	timers        Timers
	lastCompute   time.Duration
	computeQueued bool
	everComputed  bool

	table *Table

	// pending and flushQueued implement bundled flooding: accepted LSAs
	// collect here until the floodHold flush, which sends a copy and reuses
	// the slice. flush is flushPending, bound once so that scheduling a
	// flush allocates no method value.
	pending     []*LSA
	flushQueued bool
	flush       func()

	// onRecompute, if set, observes each table installation (tests,
	// experiment timelines).
	onRecompute func(at time.Duration)
}

// Protocol wires a routing daemon onto every router of a network.
type Protocol struct {
	net     *network.Network
	flood   *consensus.Service
	daemons []*Daemon
	// recomputes and tracer count and mark each table installation,
	// nodeTables and edgeTables count the installed tables by the kernel
	// that computed them, lsas counts the LSAs daemons accepted as new and
	// bundles the LSA bundles flushed (one per flush, whatever the number
	// of neighbours it goes to); all are nil when telemetry is off.
	recomputes, lsas, bundles *telemetry.Counter
	nodeTables, edgeTables    *telemetry.Counter
	tracer                    *telemetry.Tracer
	// due maps a batch instant to the daemons whose recompute is coalesced
	// into it.
	due map[time.Duration][]*Daemon
	// bundleChunk and memberChunk are the append-only chunks flushes carve
	// bundles from (carveBundle).
	bundleChunk []LSABundle
	memberChunk []*LSA
}

// Daemon returns the daemon at router id.
func (p *Protocol) Daemon(id packet.NodeID) *Daemon { return p.daemons[id] }

// Daemons returns all daemons in router-ID order.
func (p *Protocol) Daemons() []*Daemon { return p.daemons }

// Respond is the response loop (§2.4.3) as a detector.Sink: the suspecting
// router's daemon announces the suspected segment, which excises it from the
// fabric. Tee it in after the suspicion log.
func (p *Protocol) Respond(s detector.Suspicion) {
	p.Daemon(s.By).AnnounceSuspicion(s.Segment)
}

// ID returns the daemon's router ID.
func (d *Daemon) ID() packet.NodeID { return d.id }

// Exclusions returns the daemon's current excluded segments.
func (d *Daemon) Exclusions() *Exclusions { return d.excl }

// Table returns the most recently installed forwarding table (nil before
// first convergence).
func (d *Daemon) Table() *Table { return d.table }

// OnRecompute registers an observer of table installations.
func (d *Daemon) OnRecompute(fn func(at time.Duration)) { d.onRecompute = fn }

func (d *Daemon) originateLSA() {
	d.seq++
	g := d.proto.net.Graph()
	var nbs []NeighborEntry
	for _, nb := range g.Neighbors(d.id) {
		link, _ := g.Link(d.id, nb)
		nbs = append(nbs, NeighborEntry{ID: nb, Cost: link.Cost})
	}
	lsa := &LSA{Origin: d.id, Seq: d.seq, Neighbors: nbs}
	d.acceptLSA(lsa)
}

// acceptLSA installs a new LSA and queues it for the next bundle flood. A
// nil LSA, or one whose origin is not a router of the topology, is dropped
// at the door: a protocol-faulty router must not grow a correct router's
// LSDB, nor panic it.
func (d *Daemon) acceptLSA(lsa *LSA) {
	if lsa == nil || uint32(lsa.Origin) >= uint32(len(d.lsdb)) {
		return
	}
	if cur := d.lsdb[lsa.Origin]; cur != nil && cur.Seq >= lsa.Seq {
		return
	}
	d.lsdb[lsa.Origin] = lsa
	d.proto.lsas.Inc()
	d.enqueueFlood(lsa)
	d.scheduleRecompute()
}

// AnnounceSuspicion floods this router's signed suspicion of the
// path-segment (detectors call this; §2.4.3 response) over the network's
// robust flood, which delivers it to every daemon, this one included. A
// router announces only segments it is a member of: one that adopted
// another's suspicion floods nothing.
func (d *Daemon) AnnounceSuspicion(seg topology.Segment) {
	if !seg.Contains(d.id) {
		return
	}
	d.proto.flood.Flood(d.id, TopicAlert, "", topology.AppendKey(nil, seg))
}

// onAlert honours a flooded suspicion. The flood has already checked that
// its origin signed it; the daemon requires a whole segment key with the
// origin as a member (§4.2.2: a faulty router announcing bogus suspicions
// can only break links adjacent to itself, which "adds no further
// disadvantage"). It admits before it decodes: an announcement it refuses
// or whose segment is already excluded is read in place and costs nothing.
func (d *Daemon) onAlert(m consensus.Msg) {
	if !topology.MemberKey(m.Payload, m.Origin) {
		return
	}
	if _, excluded := d.excl.segments[topology.SegmentKey(m.Payload)]; excluded {
		return
	}
	if d.excl.Add(topology.DecodeKey(topology.SegmentKey(m.Payload))) {
		d.scheduleRecompute()
	}
}

// scheduleRecompute applies the OSPF delay/hold timers: compute Delay after
// the trigger, but never within Hold of the previous computation.
// Same-instant recomputes across daemons coalesce into one batch event (see
// Protocol.runBatch).
func (d *Daemon) scheduleRecompute() {
	if d.computeQueued {
		return
	}
	d.computeQueued = true
	p := d.proto
	sched := p.net.Scheduler()
	at := sched.Now() + d.timers.Delay
	if earliest := d.lastCompute + d.timers.Hold; d.everComputed && at < earliest {
		at = earliest
	}
	if _, ok := p.due[at]; !ok {
		sched.At(at, func() { p.runBatch(at) })
	}
	p.due[at] = append(p.due[at], d)
}

// prepare computes the daemon's table. truth is the ground-truth adjacency,
// fetched by the caller on the event goroutine; prepare itself touches only
// daemon-private state, that read-only snapshot and pooled scratch, so a
// batch of prepares over distinct daemons may run concurrently
// (Protocol.runBatch).
func (d *Daemon) prepare(truth *topology.CSR) {
	s := spfPool.Get().(*spfScratch)
	d.lsdbCSR(&s.csr, truth)
	d.table = s.computeTable(&s.csr, d.id, d.excl)
	spfPool.Put(s)
}

// install publishes the prepared table as the router's forwarder, counts
// and marks it (serially, unlike prepare), and fires the recompute
// observer. at is the simulated instant of the installation.
func (d *Daemon) install(at time.Duration) {
	d.computeQueued = false
	d.lastCompute = at
	d.everComputed = true
	tbl := d.table
	d.router.SetForwarder(func(p *packet.Packet, from packet.NodeID) (packet.NodeID, bool) {
		return tbl.NextHop(from, p.Dst)
	})
	d.proto.recomputes.Inc()
	if tbl.hops != nil {
		d.proto.nodeTables.Inc()
	} else {
		d.proto.edgeTables.Inc()
	}
	d.proto.tracer.Instant("ospf-recompute", "routing", at, int32(d.id), "")
	if d.onRecompute != nil {
		d.onRecompute(at)
	}
}

// lsdbCSR rebuilds c as the topology as advertised. A link u→v is installed
// iff u advertises v and the link physically exists (LSAs are trusted here;
// securing the control plane is §1.1.1's problem, explicitly out of scope
// for the detectors), at the advertised cost; of duplicate entries the last
// wins. The LSDB is one slot per router of truth: acceptLSA refuses any
// other origin.
func (d *Daemon) lsdbCSR(c *topology.CSR, truth *topology.CSR) {
	n := truth.NumNodes()
	c.Off = grow(c.Off, n+1)
	c.To, c.Cost = c.To[:0], c.Cost[:0]
	for o := 0; o < n; o++ {
		start := len(c.To)
		c.Off[o] = int32(start)
		lsa := d.lsdb[o]
		if lsa == nil {
			continue
		}
		ordered := true
		for _, nb := range lsa.Neighbors {
			if truth.Edge(packet.NodeID(o), nb.ID) < 0 {
				continue
			}
			if len(c.To) > start && nb.ID <= c.To[len(c.To)-1] {
				ordered = false
			}
			c.To = append(c.To, nb.ID)
			c.Cost = append(c.Cost, int64(nb.Cost))
		}
		if !ordered {
			sortRow(c, start)
		}
	}
	c.Off[n] = int32(len(c.To))
}

// sortRow restores ascending, duplicate-free order to the row c.To[start:]
// (an LSA this simulator did not originate may list neighbors in any order):
// a stable insertion sort, then the last of each run of equal IDs kept.
func sortRow(c *topology.CSR, start int) {
	to, cost := c.To[start:], c.Cost[start:]
	for i := 1; i < len(to); i++ {
		for j := i; j > 0 && to[j-1] > to[j]; j-- {
			to[j-1], to[j] = to[j], to[j-1]
			cost[j-1], cost[j] = cost[j], cost[j-1]
		}
	}
	k := 0
	for i := range to {
		if i+1 < len(to) && to[i+1] == to[i] {
			continue
		}
		to[k], cost[k] = to[i], cost[i]
		k++
	}
	c.To, c.Cost = c.To[:start+k], c.Cost[:start+k]
}

// Converged reports whether every daemon has computed at least one table
// and no recomputation is pending.
func (p *Protocol) Converged() bool {
	for _, d := range p.daemons {
		if d.table == nil || d.computeQueued {
			return false
		}
	}
	return true
}

// RunUntilConverged advances the simulation until all daemons converge or
// the deadline passes; it reports success.
func (p *Protocol) RunUntilConverged(deadline time.Duration) bool {
	sched := p.net.Scheduler()
	for sched.Now() < deadline {
		if p.Converged() {
			return true
		}
		if !stepOne(sched) {
			break
		}
	}
	return p.Converged()
}

func stepOne(s *sim.Scheduler) bool { return s.Step() }
