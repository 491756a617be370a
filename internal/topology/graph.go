// Package topology models the network graph the detection protocols run
// over: routers, directional point-to-point links with bandwidth, delay,
// queue capacity and routing cost, and the path / path-segment machinery
// (§4.1) that Protocols Π2 and Πk+2 build their monitoring sets from.
package topology

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"routerwatch/internal/packet"
)

// Link is a directed point-to-point link between two routers.
type Link struct {
	From packet.NodeID
	To   packet.NodeID

	// Bandwidth is the transmission rate in bits per second.
	Bandwidth int64

	// Delay is the propagation delay.
	Delay time.Duration

	// QueueLimit is the output-interface buffer size in bytes at From.
	QueueLimit int

	// Cost is the link-state routing metric.
	Cost int
}

// TransmissionTime returns how long size bytes occupy the link.
func (l Link) TransmissionTime(size int) time.Duration {
	if l.Bandwidth <= 0 {
		return 0
	}
	bits := int64(size) * 8
	return time.Duration(bits * int64(time.Second) / l.Bandwidth)
}

// Graph is the network topology. Links are stored directionally; AddDuplex
// installs both directions with identical attributes, which matches the
// paper's model of bidirectional physical links as directed pairs.
type Graph struct {
	names []string
	index map[string]packet.NodeID
	adj   map[packet.NodeID]map[packet.NodeID]*Link

	// csr is the adjacency in compressed-sparse-row form (neighbors in
	// ascending ID order with their link costs), built lazily on first read
	// and invalidated (nil) by any topology mutation. It keeps Dijkstra's
	// inner loop and flood-relay iteration off the map-sort path. Shared
	// state: readers must not mutate. Like the rest of Graph, lazy
	// (re)building is not safe under concurrent first reads — warm the
	// cache (any Neighbors or CSR call) before sharing a graph across
	// goroutines.
	csr *CSR

	// regions[v] is v's spatial region (PoP); nil when the topology carries
	// no region structure. Regions are advisory metadata: they never
	// influence path computation or forwarding, only when a router first
	// originates its LSA (at its region index in ms, see routing.Attach)
	// and the topoinfo statistics.
	regions []int
}

// invalidate drops the adjacency cache after a topology mutation.
func (g *Graph) invalidate() { g.csr = nil }

// CSR returns the graph's adjacency in compressed-sparse-row form. The
// result is shared cache state valid until the next topology mutation;
// callers must not mutate it.
func (g *Graph) CSR() *CSR {
	if g.csr != nil {
		return g.csr
	}
	n, m := len(g.names), g.NumDirectedLinks()
	c := &CSR{Off: make([]int32, n+1), To: make([]packet.NodeID, 0, m), Cost: make([]int64, 0, m)}
	for v := 0; v < n; v++ {
		c.Off[v] = int32(len(c.To))
		m := g.adj[packet.NodeID(v)]
		for to := range m {
			c.To = append(c.To, to)
		}
		slices.Sort(c.To[c.Off[v]:])
		for _, to := range c.To[c.Off[v]:] {
			c.Cost = append(c.Cost, int64(m[to].Cost))
		}
	}
	c.Off[n] = int32(len(c.To))
	g.csr = c
	return c
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		index: make(map[string]packet.NodeID),
		adj:   make(map[packet.NodeID]map[packet.NodeID]*Link),
	}
}

// AddNode adds a router with the given display name and returns its ID.
// Adding an existing name returns the existing ID.
func (g *Graph) AddNode(name string) packet.NodeID {
	if id, ok := g.index[name]; ok {
		return id
	}
	id := packet.NodeID(len(g.names))
	g.names = append(g.names, name)
	g.index[name] = id
	g.adj[id] = make(map[packet.NodeID]*Link)
	g.invalidate()
	return id
}

// Name returns the display name of a node.
func (g *Graph) Name(id packet.NodeID) string {
	if int(id) < 0 || int(id) >= len(g.names) {
		return fmt.Sprintf("r%d?", int32(id))
	}
	return g.names[id]
}

// Lookup returns the node ID for a name.
func (g *Graph) Lookup(name string) (packet.NodeID, bool) {
	id, ok := g.index[name]
	return id, ok
}

// NumNodes returns the number of routers.
func (g *Graph) NumNodes() int { return len(g.names) }

// SetRegion tags a node with its spatial region (PoP index). Regions are
// metadata; they have no routing semantics.
func (g *Graph) SetRegion(id packet.NodeID, region int) {
	if region < 0 {
		region = 0
	}
	for len(g.regions) < len(g.names) {
		g.regions = append(g.regions, 0)
	}
	g.regions[id] = region
}

// Region returns the node's region, 0 when untagged.
func (g *Graph) Region(id packet.NodeID) int {
	if int(id) < 0 || int(id) >= len(g.regions) {
		return 0
	}
	return g.regions[id]
}

// Regions returns the per-node region table (indexed by NodeID), or nil
// when the topology carries no region structure. The slice is shared state;
// callers must not mutate it.
func (g *Graph) Regions() []int {
	if g.regions == nil {
		return nil
	}
	for len(g.regions) < len(g.names) {
		g.regions = append(g.regions, 0)
	}
	return g.regions
}

// NumRegions returns 1 + the highest region tag (1 for untagged graphs).
func (g *Graph) NumRegions() int {
	max := 0
	for _, r := range g.regions {
		if r > max {
			max = r
		}
	}
	return max + 1
}

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []packet.NodeID {
	ids := make([]packet.NodeID, len(g.names))
	for i := range ids {
		ids[i] = packet.NodeID(i)
	}
	return ids
}

// AddLink installs a single directed link. It replaces any existing link
// with the same endpoints. A graph must end up duplex with symmetric,
// positive costs — every link from→to beside a link to→from of the same
// positive Cost — because the path table reads a router's next hop toward
// dst off the shortest path tree rooted at dst
// (CSR.ShortestPathTree). AddDuplex keeps the duplex by construction;
// input that installs single links (capture.Meta.Graph) checks it, and
// Link.Validate checks the cost of every link from outside the program.
func (g *Graph) AddLink(l Link) {
	if _, ok := g.adj[l.From]; !ok {
		panic(fmt.Sprintf("topology: unknown node %v", l.From))
	}
	if _, ok := g.adj[l.To]; !ok {
		panic(fmt.Sprintf("topology: unknown node %v", l.To))
	}
	if l.From == l.To {
		panic("topology: self-loop")
	}
	ll := l
	g.adj[l.From][l.To] = &ll
	g.invalidate()
}

// AddDuplex installs both directions of a bidirectional link.
func (g *Graph) AddDuplex(a, b packet.NodeID, attrs LinkAttrs) {
	g.AddLink(attrs.Link(a, b))
	g.AddLink(attrs.Link(b, a))
}

// LinkAttrs bundles the physical attributes of a duplex link.
type LinkAttrs struct {
	Bandwidth  int64
	Delay      time.Duration
	QueueLimit int
	Cost       int
}

// Link returns the directed link from→to with these attributes.
func (a LinkAttrs) Link(from, to packet.NodeID) Link {
	return Link{From: from, To: to, Bandwidth: a.Bandwidth, Delay: a.Delay, QueueLimit: a.QueueLimit, Cost: a.Cost}
}

// Validate checks a link that arrived from outside the program — a scenario
// file's custom topology, a trace manifest — before it reaches AddLink and
// the queue constructors, which panic on a self-loop or a non-positive
// buffer, and the path table, which predicts the path routing forwards along
// only for positive costs (a zero-cost link ties a two-hop path with a
// one-hop one, and the two break the tie differently). Go builders call
// AddLink directly: a bad link from them is a programmer error.
func (l Link) Validate() error {
	switch {
	case l.From == l.To:
		return errors.New("self-loop")
	case l.Bandwidth <= 0:
		return fmt.Errorf("bandwidth %d must be positive", l.Bandwidth)
	case l.QueueLimit <= 0:
		return fmt.Errorf("queue-limit %d must be positive", l.QueueLimit)
	case l.Delay < 0:
		return fmt.Errorf("delay %v must not be negative", l.Delay)
	case l.Cost <= 0:
		return fmt.Errorf("cost %d must be positive", l.Cost)
	}
	return nil
}

// DefaultLinkAttrs are sensible backbone-ish defaults used by the synthetic
// generators: 100 Mbit/s, 2 ms propagation, 64 KiB buffers, cost 10.
func DefaultLinkAttrs() LinkAttrs {
	return LinkAttrs{Bandwidth: 100e6, Delay: 2 * time.Millisecond, QueueLimit: 64 << 10, Cost: 10}
}

// HasLink reports whether the directed link from→to exists.
func (g *Graph) HasLink(from, to packet.NodeID) bool {
	_, ok := g.adj[from][to]
	return ok
}

// Link returns the directed link from→to.
func (g *Graph) Link(from, to packet.NodeID) (Link, bool) {
	l, ok := g.adj[from][to]
	if !ok {
		return Link{}, false
	}
	return *l, true
}

// Neighbors returns from's neighbors in ascending ID order. Deterministic
// ordering matters: routing tie-breaks and iteration order must be stable
// across runs. The returned slice is shared cache state valid until the
// next topology mutation; callers must not mutate it.
func (g *Graph) Neighbors(from packet.NodeID) []packet.NodeID {
	return g.CSR().Row(from)
}

// Degree returns the out-degree of a node.
func (g *Graph) Degree(id packet.NodeID) int { return len(g.adj[id]) }

// NumDirectedLinks returns the number of directed links.
func (g *Graph) NumDirectedLinks() int {
	n := 0
	for _, m := range g.adj {
		n += len(m)
	}
	return n
}

// NumDuplexLinks returns the number of bidirectional links, assuming every
// link was installed via AddDuplex.
func (g *Graph) NumDuplexLinks() int { return g.NumDirectedLinks() / 2 }

// Links returns all directed links, ordered by (From, To).
func (g *Graph) Links() []Link {
	out := make([]Link, 0, g.NumDirectedLinks())
	for _, from := range g.Nodes() {
		for _, to := range g.Neighbors(from) {
			out = append(out, *g.adj[from][to])
		}
	}
	return out
}

// Connected reports whether the graph is connected (treating links as
// undirected; all our graphs are duplex).
func (g *Graph) Connected() bool {
	n := g.NumNodes()
	if n == 0 {
		return true
	}
	seen := make([]bool, n)
	stack := []packet.NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for to := range g.adj[v] {
			if !seen[to] {
				seen[to] = true
				count++
				stack = append(stack, to)
			}
		}
	}
	return count == n
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := NewGraph()
	for _, name := range g.names {
		c.AddNode(name)
	}
	for _, l := range g.Links() {
		c.AddLink(l)
	}
	if g.regions != nil {
		c.regions = append([]int(nil), g.Regions()...)
	}
	return c
}

// RemoveLink deletes the directed link from→to if present.
func (g *Graph) RemoveLink(from, to packet.NodeID) {
	delete(g.adj[from], to)
	g.invalidate()
}

// ---------------------------------------------------------------------------
// Shortest paths

// Path is a sequence of adjacent routers (§4.1). The first router is the
// source, the last the sink.
type Path []packet.NodeID

// String renders the path as ⟨a,b,c⟩ using node IDs.
func (p Path) String() string {
	parts := make([]string, len(p))
	for i, id := range p {
		parts[i] = id.String()
	}
	return "<" + strings.Join(parts, ",") + ">"
}

// Contains reports whether the path contains node r.
func (p Path) Contains(r packet.NodeID) bool {
	for _, v := range p {
		if v == r {
			return true
		}
	}
	return false
}
