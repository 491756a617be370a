// Package baseline implements the prior-art detection protocols the paper
// surveys (Chapter 3) and the naive congestion heuristics of §6.1, as
// comparison points for Π2, Πk+2 and χ: WATCHERS (conservation of flow per
// router, including its consorting-routers flaw and the fix), the static
// loss threshold, the analytic traffic-model predictor, ZHANG's per-
// interface Poisson test, and abstract-path models of PERLMAN's ack
// protocol, HERZBERG's forwarding-fault detectors, and Secure Traceroute.
package baseline

import (
	"fmt"
	"sort"
	"time"

	"routerwatch/internal/detector"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

// watcherKey indexes the WATCHERS per-(neighbor, destination) counters
// (§3.1, the final version of the protocol: "each router maintains a
// separate set of counters for each neighbor and final destination").
type watcherKey struct {
	Neighbor packet.NodeID
	Dst      packet.NodeID
}

// WatcherCounters is one router's WATCHERS state: byte counts per
// (adjacent link, destination) for transit, originated and delivered
// traffic.
type WatcherCounters struct {
	// TransitOut[k] counts bytes this router forwarded to k.Neighbor for
	// destination k.Dst that it received from elsewhere (T counters).
	TransitOut map[watcherKey]int64
	// SourceOut[k] counts bytes this router originated and sent to
	// k.Neighbor for k.Dst (S counters).
	SourceOut map[watcherKey]int64
	// In[k] counts bytes received from k.Neighbor addressed to k.Dst.
	In map[watcherKey]int64
	// Delivered counts bytes consumed locally per upstream neighbor.
	Delivered map[packet.NodeID]int64
}

// NewWatcherCounters returns zeroed counters.
func NewWatcherCounters() *WatcherCounters {
	return &WatcherCounters{
		TransitOut: make(map[watcherKey]int64),
		SourceOut:  make(map[watcherKey]int64),
		In:         make(map[watcherKey]int64),
		Delivered:  make(map[packet.NodeID]int64),
	}
}

// SetTransitOut overrides the transit-out counter for (neighbor, dst) —
// the hook consorting-router corruptors use.
func (w *WatcherCounters) SetTransitOut(neighbor, dst packet.NodeID, v int64) {
	w.TransitOut[watcherKey{Neighbor: neighbor, Dst: dst}] = v
}

// clone deep-copies the counters (snapshot at a round boundary).
func (w *WatcherCounters) clone() *WatcherCounters {
	c := NewWatcherCounters()
	for k, v := range w.TransitOut {
		c.TransitOut[k] = v
	}
	for k, v := range w.SourceOut {
		c.SourceOut[k] = v
	}
	for k, v := range w.In {
		c.In[k] = v
	}
	for k, v := range w.Delivered {
		c.Delivered[k] = v
	}
	return c
}

// WatchersOptions configures the protocol.
type WatchersOptions struct {
	// Round is the agreed-upon measurement interval.
	Round time.Duration
	// Threshold is the conservation-of-flow slack in bytes (congestion
	// allowance — the §6.1.1 static threshold this protocol relies on).
	Threshold int64
	// Fixed enables the improved protocol that closes the consorting-
	// routers flaw: when a router observes that two of its neighbors'
	// shared-link counters disagree, it expects one of them to announce a
	// detection; silence indicts the link to the nearer neighbor (§3.1).
	Fixed bool
	// Sink receives suspicions.
	Sink detector.Sink
}

// CounterCorruptor lets a protocol-faulty router misreport its flooded
// counters (the consorting attack mutates them here).
type CounterCorruptor func(round int, honest *WatcherCounters) *WatcherCounters

// Watchers is a running WATCHERS deployment.
type Watchers struct {
	net  *network.Network
	opts WatchersOptions

	state   map[packet.NodeID]*WatcherCounters
	corrupt map[packet.NodeID]CounterCorruptor

	// reported[round][router] is the router's (possibly corrupted)
	// snapshot as flooded to everyone. WATCHERS floods snapshots; we model
	// the flood as reliable here — its flaw is in the validation logic,
	// not the transport.
	reported map[int]map[packet.NodeID]*WatcherCounters

	// detectionsAnnounced[round] records which links were announced as
	// detected, for the Fixed variant's silence rule.
	detectionsAnnounced map[int]map[[2]packet.NodeID]bool

	round int
}

// AttachWatchers deploys WATCHERS on every router.
func AttachWatchers(net *network.Network, opts WatchersOptions) *Watchers {
	if opts.Round == 0 {
		opts.Round = 5 * time.Second
	}
	if opts.Sink == nil {
		opts.Sink = func(detector.Suspicion) {}
	}
	w := &Watchers{
		net:                 net,
		opts:                opts,
		state:               make(map[packet.NodeID]*WatcherCounters),
		corrupt:             make(map[packet.NodeID]CounterCorruptor),
		reported:            make(map[int]map[packet.NodeID]*WatcherCounters),
		detectionsAnnounced: make(map[int]map[[2]packet.NodeID]bool),
	}
	for _, r := range net.Routers() {
		id := r.ID()
		w.state[id] = NewWatcherCounters()
		r.AddTap(w.tapFor(id))
	}
	net.Scheduler().NewTicker(opts.Round, func() {
		n := w.round
		w.round++
		w.closeRound(n)
	})
	return w
}

// SetCorruptor installs counter misreporting at router r.
func (w *Watchers) SetCorruptor(r packet.NodeID, c CounterCorruptor) { w.corrupt[r] = c }

// tapFor updates router id's honest counters from its local events.
func (w *Watchers) tapFor(id packet.NodeID) func(network.Event) {
	return func(ev network.Event) {
		st := w.state[id]
		switch ev.Kind {
		case network.EvReceive:
			st.In[watcherKey{Neighbor: ev.Peer, Dst: ev.Packet.Dst}] += int64(ev.Packet.Size)
		case network.EvDeliver:
			st.Delivered[ev.Peer] += int64(ev.Packet.Size)
		case network.EvDequeue:
			k := watcherKey{Neighbor: ev.Peer, Dst: ev.Packet.Dst}
			if ev.Packet.Src == id {
				st.SourceOut[k] += int64(ev.Packet.Size)
			} else {
				st.TransitOut[k] += int64(ev.Packet.Size)
			}
		}
	}
}

// closeRound snapshots, floods (reliably) and validates.
func (w *Watchers) closeRound(n int) {
	snap := make(map[packet.NodeID]*WatcherCounters)
	for id, st := range w.state {
		honest := st.clone()
		w.state[id] = NewWatcherCounters()
		if c := w.corrupt[id]; c != nil {
			snap[id] = c(n, honest)
		} else {
			snap[id] = honest
		}
	}
	w.reported[n] = snap
	w.detectionsAnnounced[n] = make(map[[2]packet.NodeID]bool)
	w.validate(n)
}

// outTo returns b's reported bytes sent to neighbor c (transit + source,
// all destinations).
func outTo(rep *WatcherCounters, c packet.NodeID) int64 {
	var total int64
	for k, v := range rep.TransitOut {
		if k.Neighbor == c {
			total += v
		}
	}
	for k, v := range rep.SourceOut {
		if k.Neighbor == c {
			total += v
		}
	}
	return total
}

// inFrom returns c's reported bytes received from neighbor b.
func inFrom(rep *WatcherCounters, b packet.NodeID) int64 {
	var total int64
	for k, v := range rep.In {
		if k.Neighbor == b {
			total += v
		}
	}
	return total
}

// validate runs every correct router's two-phase WATCHERS check for round
// n. Each router a examines its neighbors (validation phase) and then runs
// the conservation-of-flow test.
func (w *Watchers) validate(n int) {
	g := w.net.Graph()
	snap := w.reported[n]
	now := w.net.Now()

	// Pass 1: detections by routers against their own neighbors, and
	// inconsistency observations about neighbor pairs.
	type inconsistency struct {
		observer packet.NodeID
		b, c     packet.NodeID
	}
	var pending []inconsistency

	for _, a := range g.Nodes() {
		if w.net.Router(a).Behavior() != nil || w.corrupt[a] != nil {
			continue // faulty routers' verdicts are not modeled
		}
		for _, b := range g.Neighbors(a) {
			// Validation phase: a's own link counters vs b's.
			if diff := outTo(snap[a], b) - inFrom(snap[b], a); abs64(diff) > w.opts.Threshold {
				w.suspectLink(a, a, b, n, now,
					fmt.Sprintf("link counter mismatch a→b: %d", diff))
				continue
			}
			if diff := outTo(snap[b], a) - inFrom(snap[a], b); abs64(diff) > w.opts.Threshold {
				w.suspectLink(a, a, b, n, now,
					fmt.Sprintf("link counter mismatch b→a: %d", diff))
				continue
			}
			// Neighbor-pair validation: for each of b's neighbors c,
			// compare b's and c's shared-link counters. Disagreement means
			// one of {b, c} is faulty; original WATCHERS "does nothing
			// further with b; it assumes that b will detect c as faulty or
			// vice versa" — the flaw.
			inconsistent := false
			for _, c := range g.Neighbors(b) {
				if c == a {
					continue
				}
				if snap[c] == nil {
					continue
				}
				if abs64(outTo(snap[b], c)-inFrom(snap[c], b)) > w.opts.Threshold ||
					abs64(outTo(snap[c], b)-inFrom(snap[b], c)) > w.opts.Threshold {
					inconsistent = true
					pending = append(pending, inconsistency{observer: a, b: b, c: c})
				}
			}
			if inconsistent {
				continue // skip CoF for b this round (both variants)
			}
			// Conservation-of-flow test for b: transit in vs transit out.
			var tin, tout int64
			for k, v := range snap[b].In {
				if k.Dst != b { // transit traffic only
					tin += v
				}
				_ = k
			}
			for _, v := range snap[b].TransitOut {
				tout += v
			}
			if tin-tout > w.opts.Threshold {
				w.suspectLink(a, a, b, n, now,
					fmt.Sprintf("conservation of flow: %d bytes absorbed", tin-tout))
			}
		}
	}

	// Pass 2 (Fixed only): the flaw repair — an observer of an
	// inconsistent pair ⟨b,c⟩ expects b or c to announce a detection; if
	// neither does, the observer detects its own adjacent link toward b.
	if w.opts.Fixed {
		sort.Slice(pending, func(i, j int) bool {
			if pending[i].observer != pending[j].observer {
				return pending[i].observer < pending[j].observer
			}
			return pending[i].b < pending[j].b
		})
		for _, inc := range pending {
			key1 := [2]packet.NodeID{inc.b, inc.c}
			key2 := [2]packet.NodeID{inc.c, inc.b}
			if w.detectionsAnnounced[n][key1] || w.detectionsAnnounced[n][key2] {
				continue
			}
			w.suspectLink(inc.observer, inc.observer, inc.b, n, now,
				fmt.Sprintf("neighbors %v and %v disagree but neither announced a detection",
					inc.b, inc.c))
		}
	}
}

func (w *Watchers) suspectLink(by, x, y packet.NodeID, round int, at time.Duration, detail string) {
	w.detectionsAnnounced[round][[2]packet.NodeID{x, y}] = true
	w.opts.Sink(detector.Suspicion{
		By: by, Segment: topology.Segment{x, y}, Round: round, At: at,
		Kind: detector.KindTrafficValidation, Confidence: 1, Detail: detail,
	})
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// CounterStateSize returns the number of counters a router maintains under
// final-version WATCHERS for the given topology: 7 per neighbor per
// destination (§5.1.1's comparison figure).
func CounterStateSize(g *topology.Graph, r packet.NodeID) int {
	return 7 * g.Degree(r) * g.NumNodes()
}
