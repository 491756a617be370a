package capture

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/topology"
)

// MetaFile is the trace directory's manifest filename.
const MetaFile = "trace.json"

// metaVersion is the current manifest schema version.
const metaVersion = 1

// Meta is a trace directory's manifest: everything TraceEnv needs to
// rebuild the recorded run's environment — the topology, the seed (from
// which the authority re-derives the identical signing and fingerprint
// keys), the instant recording began, and the per-router capture files.
// Keys it does not name, such as the control-delay and jitter of older
// manifests, are ignored.
type Meta struct {
	Version int `json:"version"`
	// Seed is the recorded network's base seed; replay derives the same
	// auth keys and RNG streams from it.
	Seed int64 `json:"seed"`
	// Start is the virtual instant the recorder attached: the replay clock
	// starts there, so an attached protocol counts its rounds from the
	// instant the recorded one did.
	Start protocol.Duration `json:"start"`
	// Duration is the recorded run's final virtual time: the replay
	// horizon.
	Duration protocol.Duration `json:"duration"`

	// Nodes lists router display names in node-ID order.
	Nodes []string `json:"nodes"`
	// Links lists every directed link by node index.
	Links []LinkMeta `json:"links"`
	// Files names each router's capture file (relative to the trace
	// directory), parallel to Nodes.
	Files []string `json:"files"`
}

// LinkMeta is one directed link of the recorded topology.
type LinkMeta struct {
	From       int               `json:"from"`
	To         int               `json:"to"`
	Bandwidth  int64             `json:"bandwidth"`
	Delay      protocol.Duration `json:"delay"`
	QueueLimit int               `json:"queue-limit"`
	Cost       int               `json:"cost"`
}

// Graph rebuilds the recorded topology. Node IDs are assigned by Nodes
// order, matching the recorded network's IDs exactly. Every link must have
// a reverse of the same cost.
func (m *Meta) Graph() (*topology.Graph, error) {
	g := topology.NewGraph()
	for i, name := range m.Nodes {
		if id := g.AddNode(name); int(id) != i {
			return nil, fmt.Errorf("capture: duplicate node name %q", name)
		}
	}
	n := len(m.Nodes)
	for _, l := range m.Links {
		if l.From < 0 || l.From >= n || l.To < 0 || l.To >= n {
			return nil, fmt.Errorf("capture: link %d->%d outside %d nodes", l.From, l.To, n)
		}
		link := topology.Link{
			From:       packet.NodeID(l.From),
			To:         packet.NodeID(l.To),
			Bandwidth:  l.Bandwidth,
			Delay:      l.Delay.D(),
			QueueLimit: l.QueueLimit,
			Cost:       l.Cost,
		}
		if err := link.Validate(); err != nil {
			return nil, fmt.Errorf("capture: link %d->%d: %w", l.From, l.To, err)
		}
		g.AddLink(link)
	}
	// The stable-state path table reads each router's next hop off the
	// shortest path tree rooted at the destination, which is right only on
	// a duplex graph with symmetric costs (Graph.AddLink).
	for _, l := range g.Links() {
		back, ok := g.Link(l.To, l.From)
		switch {
		case !ok:
			return nil, fmt.Errorf("capture: link %d->%d has no reverse link", l.From, l.To)
		case back.Cost != l.Cost:
			return nil, fmt.Errorf("capture: link %d->%d costs %d but its reverse costs %d", l.From, l.To, l.Cost, back.Cost)
		}
	}
	return g, nil
}

// WriteMeta writes the manifest into dir.
func WriteMeta(dir string, m *Meta) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, MetaFile), append(data, '\n'), 0o644)
}

// ReadMeta reads the manifest from dir.
func ReadMeta(dir string) (*Meta, error) {
	data, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		return nil, err
	}
	m := &Meta{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("capture: %s: %w", MetaFile, err)
	}
	if m.Version != metaVersion {
		return nil, fmt.Errorf("capture: unsupported trace version %d", m.Version)
	}
	if len(m.Files) != len(m.Nodes) {
		return nil, fmt.Errorf("capture: %d files for %d nodes", len(m.Files), len(m.Nodes))
	}
	if m.Start < 0 || m.Start > m.Duration {
		return nil, fmt.Errorf("capture: start %v outside the recording [0, %v]", m.Start.D(), m.Duration.D())
	}
	return m, nil
}
