package catalog

import (
	"errors"
	"os"
	"runtime"
	"testing"

	"routerwatch/internal/protocol"
)

// raceEnabled is set when the test binary runs under the race detector
// (race_test.go).
var raceEnabled bool

// Assembly allocates only what the run reads (DESIGN.md "Hot path"): the
// isp-converge workload, read in place, assembled through protocol.Run —
// topology, network, routing converged over 500 routers, Πk+2 attached,
// attack and traffic scheduled — must stay within its heap budget by the
// time BeforeRun sees it. Static tables routing overwrites, map-grown
// LSDBs, a Dijkstra buffer set per source, a second n² path table and
// undrawn RNG states each push it over (86.7 MB and 338 k allocations
// when all five were paid; 50.3 MB and 269 k without them). The MB bound
// also holds each control message to the fields something reads: an ID
// and a transport signature, 48 of its 128 bytes, cost 2.3 MB here
// (49.0 MB and 269 k without them). The stable-state tables hold only what
// they answer: a path table of path headers over chunked arenas and
// routing tables of degree+1 materialised rows, with LSA bundles regrown by
// doubling, cost 14.1 MB and 49 k allocations (34.8 MB and 219 k without
// them). Πk+2 attaches per router, not per watch: a segment key, a links
// slice, a state object and a reversed path for each of the 15 976 watches,
// a string key per segment and per-router segment lists grown by append
// cost 4.1 MB and 92 k allocations (30.2 MB and 113 k without them).
// Routing converges inside assembly, so its LSA floods count here too: an
// envelope per control-message hop, a bundle and a member copy per flush
// cost 3.9 MB and 76 k allocations (26.4 MB and 37 k without them). A
// network allocates per router, not per link: an iface, a drain closure
// and two maps' share for each of the 1 940 links cost 6.1 k allocations
// (26.2 MB and 31.5 k without them, 33.2 k at GOMAXPROCS 32).
func TestAssembleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates the heap the budget measures")
	}
	const (
		budgetMB     = 38
		budgetAllocs = 33_500
	)
	const path = "../../../bench/workloads/isp-converge.json"
	data, err := os.ReadFile(path)
	spec, decodeErr := protocol.DecodeSpec(data)
	if err = errors.Join(err, decodeErr); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var before, assembled runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err = protocol.Run(spec, protocol.RunOptions{BeforeRun: func(*protocol.Result) {
		runtime.ReadMemStats(&assembled)
	}})
	if err != nil {
		t.Fatal(err)
	}
	mb := float64(assembled.TotalAlloc-before.TotalAlloc) / 1e6
	allocs := assembled.Mallocs - before.Mallocs
	t.Logf("assembly: %.2f MB in %d allocations", mb, allocs)
	if mb > budgetMB || allocs > budgetAllocs {
		t.Errorf("assembly allocated %.2f MB in %d allocations, budget %d MB and %d allocations",
			mb, allocs, budgetMB, budgetAllocs)
	}
}

// A run allocates for the packets in flight, not for every packet it sent
// (DESIGN.md "Hot path"): the network reuses a packet after its last event,
// a χ batch is carved once at its final size, and a Πk+2 fingerprint
// lane once at its exact size, recorded until then into chunks the
// deployment recycles. chi-tcp, mesh-forward and isp-converge, read in
// place and run through protocol.Run end to end, must stay within their
// heap budgets. chi-tcp read 64.0 MB when every packet was fresh memory and
// batches grew by doubling, 30.4 MB with the pool alone and 17.1 MB with
// both. mesh-forward read 67.1 MB before the pool and 41.4 MB with it, and
// 31.8 MB once its lanes stopped being presized from the round before and
// grown by append and each boundary's summaries stopped being signed out of
// one growing buffer, 31.5 MB without path headers, and 30.6 MB since
// Πk+2 attaches per router. isp-converge read 66.7 MB before the chunks and
// 65.8–65.9 MB with them, 51.8 MB once the path table was one arena, a
// node-kernel routing table two next-hop rows and an LSA bundle one
// exact-size copy, and 47.1 MB since Πk+2 attaches per router. Each must
// also stay within its allocation count: a run allocates nothing per
// control message either, the network carrying each hop in a pooled
// envelope, a flood relaying one Msg and an LSA flush carving its bundle.
// chi-tcp read 24 966 allocations, mesh-forward 63 868 and isp-converge
// 196 237 when every hop, every accepting relay and every flush allocated,
// and every alert was decoded before it was admitted; they read 22 459,
// 35 633 and 74 383 (16.9, 29.1 and 39.8 MB) without. Nor does a run
// allocate per χ batch or per adopted alert: chi-tcp read 22 474 when each
// batch cost a Batch, four lanes, two escaping aggregate tags and a share
// of a per-round admission map, and mesh-forward and isp-converge 35 637
// and 74 385 when every router adopting an announcement formatted its own
// Detail; they read 5 380–5 387, 30 747–30 759 and 60 634–61 891 (16.5,
// 29.0 and 39.6–41.5 MB) without, at GOMAXPROCS 1–32. Nor does a run
// allocate per Πk+2 segment-round, per adopting router or per link:
// mesh-forward and isp-converge read 30 747 and 60 634 when each
// segment-round's SummaryMsg, summary box and read lane were allocated
// alone, each watch grew its open rounds and peer messages by append,
// each adopter converted and decoded the announced key, and each link
// cost an iface, a drain closure and share of two maps; they read
// 11 408–11 426 and 37 918–39 305 (28.7 and 37.0–39.2 MB) without, at
// GOMAXPROCS 1–32.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates the heap the budget measures")
	}
	for _, tc := range []struct {
		workload     string
		budgetMB     float64
		budgetAllocs uint64
	}{
		{"chi-tcp", 20, 5_650},
		{"mesh-forward", 36, 12_000},
		{"isp-converge", 55, 40_000},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			path := "../../../bench/workloads/" + tc.workload + ".json"
			data, err := os.ReadFile(path)
			spec, decodeErr := protocol.DecodeSpec(data)
			if err = errors.Join(err, decodeErr); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := protocol.Run(spec, protocol.RunOptions{}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
			allocs := after.Mallocs - before.Mallocs
			t.Logf("%s: %.2f MB in %d allocations", tc.workload, mb, allocs)
			if mb > tc.budgetMB || allocs > tc.budgetAllocs {
				t.Errorf("%s allocated %.2f MB in %d allocations, budget %.0f MB and %d allocations",
					tc.workload, mb, allocs, tc.budgetMB, tc.budgetAllocs)
			}
		})
	}
}
