// Package catalog registers every detection protocol with the
// internal/protocol registry, following the database/sql driver pattern:
// the runtime package defines the Descriptor contract and never imports a
// protocol package; this package imports all of them and registers their
// adapters from init(). Callers that construct protocols by name
// blank-import it:
//
//	import _ "routerwatch/internal/protocol/catalog"
//
// Each adapter translates between the runtime's textual Params and the
// protocol's native typed Options, merges the runtime Hooks into the
// options' sinks (never replacing caller-supplied ones), and returns the
// attached engine.
package catalog

import (
	"fmt"

	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
)

// simNetwork unwraps the simulated network behind an Env, for protocols
// and baselines whose implementation is still simulator-only (WATCHERS'
// counter model, the replica's shadow queues, queue monitors reading
// ground truth).
func simNetwork(env protocol.Env, name string) (*network.Network, error) {
	type backed interface{ Network() *network.Network }
	if b, ok := env.(backed); ok {
		return b.Network(), nil
	}
	return nil, fmt.Errorf("protocol %q requires a simulator-backed environment", name)
}

// checkRouter rejects a router-id option that names no router of env's
// topology — the one range an option parser cannot check, since it never
// sees the topology.
func checkRouter(env protocol.Env, option string, id packet.NodeID) error {
	if n := env.Graph().NumNodes(); id < 0 || int(id) >= n {
		return fmt.Errorf("option %q: %v is not one of the topology's %d routers", option, id, n)
	}
	return nil
}
