// Package capture records and replays the packet-event streams the
// detection protocols consume, through one on-disk format: classic libpcap
// capture files.
//
// Three pieces:
//
//   - A dependency-free pcap reader/writer (pcap.go) for the one format the
//     recorder writes: little-endian, nanosecond timestamps (magic
//     0xa1b23c4d), Ethernet link type, gzipped when the file name ends in
//     ".gz". Any other global header is an error that names its magic or
//     link type.
//   - A frame codec (frame.go) that renders each network.Event as a real
//     Ethernet/IPv4/UDP frame followed by a fixed 64-byte trailer carrying
//     the event fields the fingerprint model needs. The frames open in any
//     pcap tool; the trailer makes replay lossless.
//   - A Recorder that taps every router of a simulated network and writes
//     one pcap per router plus a manifest (meta.go), and TraceEnv, the
//     second protocol.Env backend beside protocol.SimEnv, whose clock is
//     driven by the recorded timestamps and starts at the instant the
//     recorder attached.
//
// Determinism: a trace directory plus a protocol attachment is a pure
// function to a suspicion log. TraceEnv owns a loopback simulated network
// built from the recorded topology and seed — the scheduler provides the
// virtual clock, the authority re-derives the identical signing and
// fingerprint keys (both are functions of the seed), and control-plane
// latencies are the simulator's own fixed per-hop delays. Replayed packet
// events are merged across the per-router cursors in (timestamp, router,
// file order) order and delivered through the scheduler, so dispatch order
// is a pure function of the trace. See DESIGN.md "Capture & replay".
package capture
