package topology

import (
	"fmt"
	"math/rand"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/sim"
)

// ISPSpec configures the hierarchical PoP topology generator — the
// internet-scale counterpart of the hand-drawn Abilene/Sprintlink graphs.
// Each PoP (point of presence) is one spatial region: a small full-mesh
// core tier, an aggregation tier dual-homed into the cores, and an edge
// tier multi-homed into the aggregation routers. PoP cores interconnect
// over a backbone ring plus preferential-attachment shortcut links, which
// gives the PoP-level graph the heavy-tailed degree distribution observed
// in Rocketfuel-style ISP maps.
type ISPSpec struct {
	// Nodes is the exact total router count (floored at
	// PoPs*(ispCoresPerPoP+aggsPerPoP+1) so every PoP has at least one
	// edge router).
	Nodes int
	// PoPs is the number of points of presence (= regions). Default
	// max(2, Nodes/50).
	PoPs int
	// EdgeUplinks is how many aggregation routers each edge router homes
	// to (default 2, clamped to aggsPerPoP).
	EdgeUplinks int
	// ExtraBackbone adds this many preferential-attachment backbone links
	// beyond the PoP ring (default PoPs/2) — the degree-distribution knob.
	ExtraBackbone int
	// Seed drives the generator's SplitMix64 streams. Every random draw is
	// keyed to a stable entity (a PoP, the backbone), never to generation
	// order, so the graph is a pure function of the spec.
	Seed int64

	// aggsPerPoP sizes the aggregation tier: max(2, Nodes/PoPs/6), set by
	// fill.
	aggsPerPoP int
}

// ispCoresPerPoP sizes the core tier of every PoP.
const ispCoresPerPoP = 2

// fill resolves defaults and clamps to a constructible configuration.
func (s ISPSpec) fill() ISPSpec {
	if s.Nodes <= 0 {
		s.Nodes = 1000
	}
	if s.PoPs <= 0 {
		s.PoPs = s.Nodes / 50
		if s.PoPs < 2 {
			s.PoPs = 2
		}
	}
	s.aggsPerPoP = max(2, s.Nodes/s.PoPs/6)
	if s.EdgeUplinks <= 0 {
		s.EdgeUplinks = 2
	}
	if s.EdgeUplinks > s.aggsPerPoP {
		s.EdgeUplinks = s.aggsPerPoP
	}
	if s.ExtraBackbone == 0 {
		s.ExtraBackbone = s.PoPs / 2
	} else if s.ExtraBackbone < 0 {
		s.ExtraBackbone = 0
	}
	if min := s.PoPs * (ispCoresPerPoP + s.aggsPerPoP + 1); s.Nodes < min {
		s.Nodes = min
	}
	return s
}

// Link attribute tiers. Backbone delay is drawn per link (2–8 ms); all
// intra-PoP delays sit far below it, so the minimum inter-region latency is
// the backbone floor.
var (
	ispCoreAttrs = LinkAttrs{Bandwidth: 40e9, Delay: 100 * time.Microsecond, QueueLimit: 512 << 10, Cost: 2}
	ispAggAttrs  = LinkAttrs{Bandwidth: 10e9, Delay: 200 * time.Microsecond, QueueLimit: 256 << 10, Cost: 5}
	ispEdgeAttrs = LinkAttrs{Bandwidth: 1e9, Delay: 500 * time.Microsecond, QueueLimit: 128 << 10, Cost: 10}
)

// ispBackboneDelayFloor is the minimum backbone link delay; the generator's
// cross-region lookahead bound.
const ispBackboneDelayFloor = 2 * time.Millisecond

// ISP generates a deterministic hierarchical PoP topology. Node IDs are
// assigned PoP by PoP (cores, then aggregation, then edge), names encode
// tier and index ("p<pop>c<i>" / "p<pop>a<i>" / "p<pop>e<i>"), and every
// node's region is its PoP.
func ISP(spec ISPSpec) *Graph {
	spec = spec.fill()
	g := NewGraph()

	// Nodes left after the fixed tiers become edge routers, spread
	// round-robin so PoP sizes differ by at most one.
	base := spec.PoPs * (ispCoresPerPoP + spec.aggsPerPoP)
	edgesTotal := spec.Nodes - base

	coreIDs := make([][]packet.NodeID, spec.PoPs)
	aggIDs := make([][]packet.NodeID, spec.PoPs)
	for p := 0; p < spec.PoPs; p++ {
		nEdges := edgesTotal/spec.PoPs + boolToInt(p < edgesTotal%spec.PoPs)
		for i := 0; i < ispCoresPerPoP; i++ {
			id := g.AddNode(fmt.Sprintf("p%dc%d", p, i))
			g.SetRegion(id, p)
			coreIDs[p] = append(coreIDs[p], id)
		}
		for i := 0; i < spec.aggsPerPoP; i++ {
			id := g.AddNode(fmt.Sprintf("p%da%d", p, i))
			g.SetRegion(id, p)
			aggIDs[p] = append(aggIDs[p], id)
		}
		// Core full mesh.
		for i := 0; i < len(coreIDs[p]); i++ {
			for k := i + 1; k < len(coreIDs[p]); k++ {
				g.AddDuplex(coreIDs[p][i], coreIDs[p][k], ispCoreAttrs)
			}
		}
		// Aggregation dual-homing into the cores.
		for i, a := range aggIDs[p] {
			g.AddDuplex(a, coreIDs[p][i%ispCoresPerPoP], ispAggAttrs)
			g.AddDuplex(a, coreIDs[p][(i+1)%ispCoresPerPoP], ispAggAttrs)
		}
		// Per-PoP RNG stream: keyed to the PoP, independent of every other
		// PoP's draws, so regenerating with more PoPs never shifts an
		// existing PoP's wiring.
		rng := sim.NewRNG(sim.DeriveSeed(spec.Seed, uint64(p)))
		for j := 0; j < nEdges; j++ {
			id := g.AddNode(fmt.Sprintf("p%de%d", p, j))
			g.SetRegion(id, p)
			wireEdge(g, id, aggIDs[p], j, spec.EdgeUplinks, rng)
		}
	}

	// Backbone: a ring over PoP cores, then preferential-attachment
	// shortcuts. The backbone stream is its own entity-keyed RNG.
	bb := sim.NewRNG(sim.DeriveSeed(spec.Seed, 1<<32))
	bbDegree := make([]int64, spec.PoPs)
	addBackbone := func(a, b, core int) bool {
		u := coreIDs[a][core%len(coreIDs[a])]
		v := coreIDs[b][core%len(coreIDs[b])]
		if g.HasLink(u, v) {
			return false
		}
		delay := ispBackboneDelayFloor + time.Duration(bb.Int63n(int64(6*time.Millisecond)))
		g.AddDuplex(u, v, LinkAttrs{
			Bandwidth:  100e9,
			Delay:      delay,
			QueueLimit: 1 << 20,
			Cost:       int(delay / (100 * time.Microsecond)),
		})
		bbDegree[a]++
		bbDegree[b]++
		return true
	}
	if spec.PoPs == 2 {
		addBackbone(0, 1, 0)
	} else {
		for p := 0; p < spec.PoPs; p++ {
			addBackbone(p, (p+1)%spec.PoPs, 0)
		}
	}
	for k := 0; k < spec.ExtraBackbone; k++ {
		for attempt := 0; attempt < 8; attempt++ {
			a := weightedPick(bb, bbDegree, -1)
			b := weightedPick(bb, bbDegree, a)
			if a < 0 || b < 0 || a == b {
				continue
			}
			if addBackbone(a, b, k%ispCoresPerPoP) {
				break
			}
		}
	}
	return g
}

// wireEdge homes one edge router into uplinks distinct aggregation routers:
// a deterministic round-robin primary plus randomly drawn secondaries.
func wireEdge(g *Graph, id packet.NodeID, aggs []packet.NodeID, j, uplinks int, rng *rand.Rand) {
	a := len(aggs)
	primary := j % a
	g.AddDuplex(id, aggs[primary], ispEdgeAttrs)
	if uplinks < 2 || a < 2 {
		return
	}
	chosen := map[int]bool{primary: true}
	for u := 1; u < uplinks; u++ {
		pick := (primary + 1 + rng.Intn(a-1)) % a
		for chosen[pick] {
			pick = (pick + 1) % a
		}
		chosen[pick] = true
		g.AddDuplex(id, aggs[pick], ispEdgeAttrs)
	}
}

// weightedPick draws a PoP index with probability proportional to its
// backbone degree (preferential attachment), excluding skip. Returns -1
// when the weights are all zero.
func weightedPick(rng *rand.Rand, deg []int64, skip int) int {
	var total int64
	for p, d := range deg {
		if p == skip {
			continue
		}
		total += d
	}
	if total <= 0 {
		return -1
	}
	x := rng.Int63n(total)
	for p, d := range deg {
		if p == skip {
			continue
		}
		if x < d {
			return p
		}
		x -= d
	}
	return -1
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
