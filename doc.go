// Package routerwatch is the root of a module that detects compromised
// routers by their packet-forwarding behaviour, reproducing Mızrak, Marzullo
// & Savage's work ("Brief Announcement: Detecting Malicious Routers", PODC
// 2004, and the dissertation expanding it).
//
// The implementation lives under internal/ and is driven through the
// commands (cmd/mrsim, cmd/mrreplay, cmd/figures, cmd/campaign) and the
// examples; this package holds only the module-wide tests. The module
// provides:
//
//   - A deterministic network simulator (routers, links, output queues,
//     adversarial behaviours) as the substrate.
//   - Protocol Π2 — traffic validation per path-segment nodes: strong
//     completeness and accuracy with precision 2.
//   - Protocol Πk+2 — traffic validation per path-segment ends: the
//     practical protocol, precision k+2, deployed by the Fatih system.
//   - Protocol χ — per-interface queue replay that infers congestive losses
//     exactly and attributes the rest to malice via calibrated statistical
//     tests (drop-tail and RED).
//   - A link-state routing substrate whose response mechanism excises
//     suspected path-segments from the forwarding fabric.
//   - Baseline protocols (WATCHERS, static threshold, traffic models,
//     PERLMAN, HERZBERG, SecTrace) and the full experiment suite
//     regenerating the paper's figures.
//
// The quickstart in examples/quickstart shows the core loop: build a
// topology, deploy a detector, compromise a router, observe the suspicion
// and the rerouted fabric.
package routerwatch
