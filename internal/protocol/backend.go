package protocol

import (
	"time"

	"routerwatch/internal/telemetry"
)

// Backend is a runnable Env with a lifetime: something a detection
// protocol can be attached to and driven to a horizon. SimEnv (wrapped by
// AssembleSim) is the first backend; internal/capture's TraceEnv is the
// second.
type Backend interface {
	// Env returns the environment protocols attach to.
	Env() Env
	// Run advances the backend to the given virtual time; until <= 0 means
	// run to the backend's own horizon.
	Run(until time.Duration)
	// Horizon is the backend's natural end time: the spec duration for a
	// simulation, the recorded duration for a trace.
	Horizon() time.Duration
	// Close releases backend resources (open capture files).
	Close() error
}

// simBackend wraps a fully assembled simulated scenario as a Backend.
type simBackend struct {
	res     *Result
	horizon time.Duration
}

func (b *simBackend) Env() Env { return b.res.Env }

func (b *simBackend) Run(until time.Duration) {
	if until <= 0 {
		until = b.horizon
	}
	b.res.Net.Run(until)
}

func (b *simBackend) Horizon() time.Duration { return b.horizon }
func (b *simBackend) Close() error           { return nil }

// Result exposes the assembled scenario for callers that need the sim
// escape hatches (ground truth, the raw network).
func (b *simBackend) Result() *Result { return b.res }

// AssembleSim builds a simulated Backend from a declarative spec through
// the same assembly sequence as RunGeneric, minus the attach step: the
// caller attaches a protocol against Env() afterwards (so one assembled
// backend can host any registry protocol, or none). That is the only
// difference from a RunGeneric run of the same spec — the protocol's
// events are scheduled after the attack's and the traffic's instead of
// before them, so they may interleave differently at equal virtual
// instants.
func AssembleSim(spec *Spec, tel *telemetry.Set) (Backend, error) {
	res, base, err := assemble(spec, tel, nil)
	if err != nil {
		return nil, err
	}
	return &simBackend{res: res, horizon: base + spec.Duration.D()}, nil
}
