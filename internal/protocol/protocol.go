// Package protocol is the runtime layer that presents Π2, Πk+2, χ and the
// Fatih composition as instances of one framework — traffic validation +
// distributed detection + response (§4) — instead of four unrelated
// Attach(net, Options) APIs.
//
// It has three parts:
//
//   - Env: the execution environment a detection protocol attaches to —
//     virtual clock, topology, control plane, signer/verifier, RNG streams.
//     Detector logic talks to an Env instead of reaching into sim/network
//     internals, so the simulator (SimEnv) is merely the first backend.
//
//   - Registry: name-keyed protocol descriptors with per-protocol option
//     parsing, so callers construct any registered protocol by name
//     (cmd/mrsim -protocol, scenario specs). Registration lives in the
//     protocol/catalog subpackage to keep this package import-cycle free.
//
//   - Spec: a small declarative scenario config (topology builder, attack
//     spec, protocol + options, traffic, rounds, seed) that Run executes
//     deterministically.
//
// Determinism obligations for Env backends: all time must come from the
// environment's virtual clock (wall-clock reads are lint-banned), all
// randomness from RNG(stream) (derived from Seed via sim.DeriveSeed), and
// callback dispatch order must be a pure function of the schedule — the
// parallel runner's bitwise replay contract depends on it. The rwlint
// analyzers enforce the first two module-wide.
package protocol

import "routerwatch/internal/detector"

// Hooks is what the runtime wires into every protocol it attaches: where
// suspicions go. The response mechanism is one more sink
// (routing.(*Protocol).Respond) teed in after the log. Descriptors merge
// these with (never replace) sinks the caller set in typed options.
type Hooks struct {
	// Log is the suspicion log behind Sink; Run surfaces it as Result.Log.
	Log *detector.Log
	// Sink receives every suspicion the deployment raises or adopts.
	Sink detector.Sink
}

// LogHooks builds the runtime's default hooks: a fresh suspicion log with
// its sink wired in.
func LogHooks() (Hooks, *detector.Log) {
	log := detector.NewLog()
	return Hooks{Log: log, Sink: detector.LogSink(log)}, log
}

// MergeSink composes an options-level sink with the runtime hook sink;
// either may be nil.
func MergeSink(opt detector.Sink, hook detector.Sink) detector.Sink {
	switch {
	case opt == nil:
		return hook
	case hook == nil:
		return opt
	default:
		return detector.Tee(opt, hook)
	}
}
