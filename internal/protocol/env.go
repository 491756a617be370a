package protocol

import (
	"math/rand"
	"time"

	"routerwatch/internal/auth"
	"routerwatch/internal/consensus"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/sim"
	"routerwatch/internal/telemetry"
	"routerwatch/internal/topology"
)

// Env is the execution environment a detection protocol attaches to. It is
// everything §4's framework assumes of the deployment substrate: a clock
// for validation rounds, the (predictable, §4.1) topology, a per-router
// signer/verifier (§2.2.2's authentication assumption), a control plane for
// summary exchange and robust flooding, packet observation taps, and
// seeded RNG streams.
//
// The simulator is the first backend (SimEnv); a real-transport backend
// implements the same contract. Backends must keep the determinism
// obligations in the package comment: virtual time only, seeded RNG
// streams only, schedule-driven dispatch order.
type Env interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// At schedules fn at absolute virtual time t.
	At(t time.Duration, fn func())
	// After schedules fn d after the current virtual time.
	After(d time.Duration, fn func())
	// Every schedules fn at every multiple of interval, starting one
	// interval from now: the tick under every periodic driver, such as a
	// deployment's round clock (tvinfo.Recording.Drive).
	Every(interval time.Duration, fn func()) *sim.Ticker

	// Nodes lists every router, in deterministic (ID) order.
	Nodes() []packet.NodeID
	// Graph returns the routing topology.
	Graph() *topology.Graph
	// Auth returns the shared key-distribution authority: the signer and
	// verifier detection messages use.
	Auth() *auth.Authority
	// Hasher returns the network-wide packet fingerprint function.
	Hasher() packet.Hasher

	// SendControl transmits a control-plane message (summaries, batches)
	// along the path it names; Graph().CSR().Paths() holds the
	// stable-state route between any two routers. The message is copied
	// into an envelope the network owns, so the caller's value is free
	// once SendControl returns.
	SendControl(m network.ControlMessage)
	// HandleControl registers a control-message handler at a router. The
	// handler must not keep the *ControlMessage after it returns (the
	// network reuses the envelope); it may keep the payload.
	HandleControl(at packet.NodeID, kind string, h func(*network.ControlMessage))
	// Tap observes a router's local packet events (the kernel Traffic
	// Summary Generator's hook, §5.3.1).
	Tap(at packet.NodeID, fn func(network.Event))
	// Flood returns the environment's robust-flooding service (created on
	// first use), the reliable-broadcast substrate of §4.2's detection
	// layer.
	Flood() *consensus.Service

	// Seed returns the environment's base seed.
	Seed() int64
	// RNG returns a deterministic RNG for the given stream, derived from
	// the base seed (sim.DeriveSeed) so independent consumers never share
	// or race a generator.
	RNG(stream uint64) *rand.Rand
	// Telemetry returns the instrumentation set (nil when disabled; the
	// detector instruments are nil-safe).
	Telemetry() *telemetry.Set
}

// SimEnv adapts a simulated network to the Env contract by pure
// delegation: every call maps 1:1 onto the underlying scheduler/network
// call detection protocols previously made directly, so attaching through
// a SimEnv is bitwise-identical to the pre-runtime wiring.
type SimEnv struct {
	net *network.Network
	// flood is created lazily so environments that never flood (χ) pay
	// nothing; once created it is shared by every protocol on this env.
	flood *consensus.Service
}

// NewSimEnv wraps a simulated network as a protocol environment.
func NewSimEnv(net *network.Network) *SimEnv { return &SimEnv{net: net} }

// Network returns the backing simulated network — the escape hatch for
// sim-only machinery (attack installation, baseline monitors reading
// ground truth). Portable protocol logic must not use it.
func (e *SimEnv) Network() *network.Network { return e.net }

// Now returns the current virtual time.
func (e *SimEnv) Now() time.Duration { return e.net.Now() }

// At schedules fn at absolute virtual time t.
func (e *SimEnv) At(t time.Duration, fn func()) { e.net.Scheduler().At(t, fn) }

// After schedules fn d after now.
func (e *SimEnv) After(d time.Duration, fn func()) { e.net.Scheduler().After(d, fn) }

// Every schedules fn every interval.
func (e *SimEnv) Every(interval time.Duration, fn func()) *sim.Ticker {
	return e.net.Scheduler().NewTicker(interval, fn)
}

// Nodes lists every router in ID order.
func (e *SimEnv) Nodes() []packet.NodeID {
	routers := e.net.Routers()
	ids := make([]packet.NodeID, len(routers))
	for i, r := range routers {
		ids[i] = r.ID()
	}
	return ids
}

// Graph returns the topology.
func (e *SimEnv) Graph() *topology.Graph { return e.net.Graph() }

// Auth returns the key-distribution authority.
func (e *SimEnv) Auth() *auth.Authority { return e.net.Auth() }

// Hasher returns the packet fingerprint function.
func (e *SimEnv) Hasher() packet.Hasher { return e.net.Hasher() }

// SendControl transmits a control-plane message.
func (e *SimEnv) SendControl(m network.ControlMessage) { e.net.SendControl(m) }

// HandleControl registers a control handler at a router.
func (e *SimEnv) HandleControl(at packet.NodeID, kind string, h func(*network.ControlMessage)) {
	e.net.Router(at).HandleControl(kind, h)
}

// Tap observes a router's local packet events.
func (e *SimEnv) Tap(at packet.NodeID, fn func(network.Event)) {
	e.net.Router(at).AddTap(fn)
}

// Flood returns the env's robust-flooding service, created on first use.
func (e *SimEnv) Flood() *consensus.Service {
	if e.flood == nil {
		e.flood = consensus.NewService(e.net)
	}
	return e.flood
}

// Seed returns the network's base seed.
func (e *SimEnv) Seed() int64 { return e.net.Seed() }

// RNG returns the deterministic RNG for a stream.
func (e *SimEnv) RNG(stream uint64) *rand.Rand {
	return sim.NewRNG(sim.DeriveSeed(e.net.Seed(), stream))
}

// Telemetry returns the instrumentation set (nil when disabled).
func (e *SimEnv) Telemetry() *telemetry.Set { return e.net.Telemetry() }
