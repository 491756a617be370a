package protocol

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

// Duration is a time.Duration that encodes as a human-readable string in
// JSON ("250ms", "30s"), so scenario files stay legible and diffable.
// Decoding also accepts a bare number of nanoseconds.
type Duration time.Duration

// D returns the native duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON renders the duration as a string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON parses either a duration string or nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		dur, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("invalid duration %q: %v", s, err)
		}
		*d = Duration(dur)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("invalid duration %s", b)
	}
	*d = Duration(ns)
	return nil
}

// Spec is a declarative scenario: which protocol to deploy (by registry
// name, with textual options), on what topology, against which attack,
// under what traffic, for how long, from which seed. Run executes it.
type Spec struct {
	// Name labels the scenario (documentation only).
	Name string `json:"name,omitempty"`
	// Protocol is the registry name to deploy.
	Protocol string `json:"protocol"`
	// Options are the protocol's textual options (ParseOptions input).
	Options Params `json:"options,omitempty"`
	// Seed drives every RNG stream of the run.
	Seed int64 `json:"seed"`
	// Duration is how long the scenario runs past routing convergence.
	Duration Duration `json:"duration,omitempty"`
	// Jitter is the per-hop processing jitter of the network.
	Jitter Duration `json:"jitter,omitempty"`
	// Shards is accepted and ignored: scenario files written for the removed
	// sharded event kernel still decode, and run on the single heap.
	Shards int `json:"shards,omitempty"`

	Topology TopologySpec `json:"topology"`
	Routing  *RoutingSpec `json:"routing,omitempty"`
	Attack   *AttackSpec  `json:"attack,omitempty"`
	// Attacks lists additional compromised routers beyond Attack — the
	// colluding sets of the WATCHERS consorting flaw and the mutation
	// campaign's collusion operators. Attack and Attacks are one set;
	// keeping the singular field preserves existing scenario files.
	Attacks []AttackSpec  `json:"attacks,omitempty"`
	Traffic []TrafficSpec `json:"traffic,omitempty"`
}

// AttackList collects the scenario's attacks — the singular Attack field
// followed by the Attacks list — skipping nil and "none" entries. The
// returned order is the installation order.
func (s *Spec) AttackList() []*AttackSpec {
	var list []*AttackSpec
	if a := s.Attack; a != nil && a.Kind != "" && a.Kind != "none" {
		list = append(list, a)
	}
	for i := range s.Attacks {
		if a := &s.Attacks[i]; a.Kind != "" && a.Kind != "none" {
			list = append(list, a)
		}
	}
	return list
}

// validate checks the scenario against its built topology of n routers:
// what a scenario file can get wrong that the run would otherwise panic on.
func (s *Spec) validate(n int) error {
	outside := func(ids ...int) bool {
		for _, id := range ids {
			if id < 0 || id >= n {
				return true
			}
		}
		return false
	}
	for _, a := range s.AttackList() {
		if outside(a.Node) {
			return fmt.Errorf("scenario: attack node %d is not a router of the %d-node topology", a.Node, n)
		}
		if a.Kind == "fabricate" && outside(a.Src, a.Dst) {
			return fmt.Errorf("scenario: fabricate src %d, dst %d: not routers of the %d-node topology", a.Src, a.Dst, n)
		}
	}
	for i := range s.Traffic {
		t := &s.Traffic[i]
		switch {
		case t.Interval < 0 || t.Offset < 0 || t.Count < 0 || t.Pairs < 0:
			return fmt.Errorf("scenario: traffic[%d]: interval, offset, count and pairs must not be negative", i)
		case t.Kind == "mesh" && n < 2:
			return fmt.Errorf("scenario: traffic[%d]: mesh needs at least 2 routers, the topology has %d", i, n)
		case t.Kind != "mesh" && outside(t.Src, t.Dst):
			return fmt.Errorf("scenario: traffic[%d]: src %d, dst %d: not routers of the %d-node topology", i, t.Src, t.Dst, n)
		}
	}
	return nil
}

// TopologySpec selects a named topology builder or describes a custom
// graph.
type TopologySpec struct {
	// Kind is "line" (N routers), "abilene", "simple-chi" (N sources, M
	// sinks), "isp" (generated hierarchical PoP topology, N routers) or
	// "custom" (Nodes + Links).
	Kind string `json:"kind"`
	N    int    `json:"n,omitempty"`
	M    int    `json:"m,omitempty"`
	// Pops, EdgeUplinks, ExtraBackbone and Seed shape the "isp" generator
	// (zero values take topology.ISPSpec defaults).
	Pops          int   `json:"pops,omitempty"`
	EdgeUplinks   int   `json:"edge-uplinks,omitempty"`
	ExtraBackbone int   `json:"extra-backbone,omitempty"`
	Seed          int64 `json:"topo-seed,omitempty"`
	// Nodes and Links describe a custom topology; links are duplex.
	Nodes []string   `json:"nodes,omitempty"`
	Links []LinkSpec `json:"links,omitempty"`
}

// LinkSpec is one duplex link of a custom topology; zero attribute fields
// take topology.DefaultLinkAttrs.
type LinkSpec struct {
	From       string   `json:"from"`
	To         string   `json:"to"`
	Bandwidth  int64    `json:"bandwidth,omitempty"` // bits/s
	Delay      Duration `json:"delay,omitempty"`
	QueueLimit int      `json:"queue-limit,omitempty"` // bytes
	Cost       int      `json:"cost,omitempty"`
}

// Build constructs the topology.
func (t TopologySpec) Build() (*topology.Graph, error) {
	switch t.Kind {
	case "line":
		n := t.N
		if n == 0 {
			n = 5
		}
		return topology.Line(n), nil
	case "abilene":
		return topology.Abilene(), nil
	case "isp":
		return topology.ISP(topology.ISPSpec{
			Nodes:         t.N,
			PoPs:          t.Pops,
			EdgeUplinks:   t.EdgeUplinks,
			ExtraBackbone: t.ExtraBackbone,
			Seed:          t.Seed,
		}), nil
	case "simple-chi":
		if err := t.CheckChi(); err != nil {
			return nil, err
		}
		return t.BuildChi().Graph, nil
	case "custom":
		if len(t.Nodes) == 0 {
			return nil, fmt.Errorf("custom topology needs nodes")
		}
		g := topology.NewGraph()
		for i, name := range t.Nodes {
			if id := g.AddNode(name); int(id) != i {
				return nil, fmt.Errorf("duplicate node name %q", name)
			}
		}
		for _, l := range t.Links {
			a, okA := g.Lookup(l.From)
			b, okB := g.Lookup(l.To)
			if !okA || !okB {
				return nil, fmt.Errorf("link %s-%s references unknown node", l.From, l.To)
			}
			attrs := topology.DefaultLinkAttrs()
			if l.Bandwidth != 0 {
				attrs.Bandwidth = l.Bandwidth
			}
			if l.Delay != 0 {
				attrs.Delay = l.Delay.D()
			}
			if l.QueueLimit != 0 {
				attrs.QueueLimit = l.QueueLimit
			}
			if l.Cost != 0 {
				attrs.Cost = l.Cost
			}
			if err := attrs.Link(a, b).Validate(); err != nil {
				return nil, fmt.Errorf("link %s-%s: %w", l.From, l.To, err)
			}
			g.AddDuplex(a, b, attrs)
		}
		return g, nil
	default:
		return nil, fmt.Errorf("unknown topology kind %q", t.Kind)
	}
}

// CheckChi rejects the source and sink counts BuildChi cannot build: a
// negative N or M (zero takes the default).
func (t TopologySpec) CheckChi() error {
	if t.N < 0 || t.M < 0 {
		return fmt.Errorf("simple-chi: n %d sources, m %d sinks: must not be negative", t.N, t.M)
	}
	return nil
}

// BuildChi constructs the Fig 6.4 star topology with its distinguished
// validated queue (only meaningful for Kind "simple-chi", after CheckChi).
func (t TopologySpec) BuildChi() *topology.SimpleChiTopology {
	sources, sinks := t.N, t.M
	if sources == 0 {
		sources = 3
	}
	if sinks == 0 {
		sinks = 2
	}
	return topology.SimpleChi(sources, sinks)
}

// RoutingSpec attaches the link-state routing fabric before the protocol.
type RoutingSpec struct {
	// Delay and Hold are the OSPF-style timers (zero = routing defaults).
	Delay Duration `json:"delay,omitempty"`
	Hold  Duration `json:"hold,omitempty"`
	// Converge runs the simulation until the fabric converges (bounded by
	// this budget) before traffic starts.
	Converge Duration `json:"converge,omitempty"`
	// Respond tees routing.(*Protocol).Respond into the protocol's sink
	// after the suspicion log: the suspecting router's daemon announces
	// every suspected segment — the paper's response mechanism.
	Respond bool `json:"respond,omitempty"`
	// StaggerRegions, BundleFlood and BatchCompute map onto routing.Options
	// — the substrate's scale knobs for generated topologies. All false
	// reproduces the legacy routing event stream byte-for-byte.
	StaggerRegions bool `json:"stagger-regions,omitempty"`
	BundleFlood    bool `json:"bundle-flood,omitempty"`
	BatchCompute   bool `json:"batch-compute,omitempty"`
}

// AttackSpec compromises one router.
type AttackSpec struct {
	// Kind is "drop", "delay", "modify", "reorder", "fabricate", or "none"
	// (the χ scenario additionally understands "masked90" and "syn").
	Kind string `json:"kind"`
	// Node is the compromised router.
	Node int `json:"node"`
	// Rate is the drop probability for "drop".
	Rate float64 `json:"rate,omitempty"`
	// Start is when the behaviour begins; Stop, when positive, ends it
	// (a burst window).
	Start Duration `json:"start,omitempty"`
	Stop  Duration `json:"stop,omitempty"`
	// Period and Duty shape periodic drop bursts: with Period > 0 the
	// dropper fires only during the first Duty fraction of each period.
	Period Duration `json:"period,omitempty"`
	Duty   float64  `json:"duty,omitempty"`
	// Delay is the fixed hold time for "delay".
	Delay Duration `json:"delay,omitempty"`
	// Jitter is the reorder delay spread for "reorder" (and extra jitter
	// for "delay").
	Jitter Duration `json:"jitter,omitempty"`
	// Seed seeds the attacker's private RNG; 0 derives one from the
	// scenario seed (sim.DeriveSeed keyed by the attack's position), so
	// colluding attackers never share a stream.
	Seed int64 `json:"seed,omitempty"`
	// MinQueueFrac masks drops below this output-queue occupancy;
	// MinREDAvg masks them below this RED average queue size (bytes).
	MinQueueFrac float64 `json:"min-queue-frac,omitempty"`
	MinREDAvg    float64 `json:"min-red-avg,omitempty"`
	// Select restricts targeted packets: "all" (default), "data", "syn",
	// or "flow" (victims listed in Flows).
	Select string `json:"select,omitempty"`
	// Flows are the victim flows for Select "flow".
	Flows []packet.FlowID `json:"flows,omitempty"`
	// Src, Dst, Size and Every shape fabricated traffic ("fabricate").
	Src   int      `json:"src,omitempty"`
	Dst   int      `json:"dst,omitempty"`
	Size  int      `json:"size,omitempty"`
	Every Duration `json:"every,omitempty"`
}

// TrafficSpec is one injected workload.
type TrafficSpec struct {
	// Kind is "stream" (Src→Dst), "pair" (both directions per tick, the
	// reverse direction under ReverseFlow) or "mesh" (Pairs random
	// src→dst flows drawn deterministically from the scenario seed; Src
	// and Dst are ignored). Default "stream".
	Kind string `json:"kind,omitempty"`
	Src  int    `json:"src"`
	Dst  int    `json:"dst"`
	// Pairs is the number of random flows for "mesh" (default 100). Each
	// flow injects Count packets, one per Interval, from a single chained
	// event, so a million-packet mesh never holds more than Pairs pending
	// injection events.
	Pairs int `json:"pairs,omitempty"`
	// Count packets are injected, one per Interval, offset by Offset from
	// the scenario's traffic base (post-convergence time).
	Count    int      `json:"count"`
	Interval Duration `json:"interval"`
	Offset   Duration `json:"offset,omitempty"`
	// Size is the packet size in bytes (default 500).
	Size int `json:"size,omitempty"`
	// Flow and ReverseFlow label the forward and reverse flows.
	Flow        packet.FlowID `json:"flow,omitempty"`
	ReverseFlow packet.FlowID `json:"reverse-flow,omitempty"`
}

// Encode renders the spec as indented JSON (the scenario file format).
func (s *Spec) Encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeSpec parses a scenario file. Unknown fields are errors — a
// misspelled field must not silently vanish.
func DecodeSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	if s.Protocol == "" {
		return nil, fmt.Errorf("scenario: missing protocol")
	}
	return &s, nil
}
