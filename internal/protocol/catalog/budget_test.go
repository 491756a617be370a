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
// them).
func TestAssembleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates the heap the budget measures")
	}
	const (
		budgetMB     = 38
		budgetAllocs = 236_000
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
// a χ batch is allocated once at its final size, and a Πk+2 fingerprint
// lane once at its exact size, recorded until then into chunks the
// deployment recycles. chi-tcp, mesh-forward and isp-converge, read in
// place and run through protocol.Run end to end, must stay within their
// heap budgets. chi-tcp read 64.0 MB when every packet was fresh memory and
// batches grew by doubling, 30.4 MB with the pool alone and 17.1 MB with
// both. mesh-forward read 67.1 MB before the pool and 41.4 MB with it, and
// 31.8 MB once its lanes stopped being presized from the round before and
// grown by append and each boundary's summaries stopped being signed out of
// one growing buffer, and 31.5 MB without path headers. isp-converge read 66.7 MB before the chunks and
// 65.8–65.9 MB with them, and reads 51.8 MB since the path table is one
// arena, a node-kernel routing table two next-hop rows and an LSA bundle
// one exact-size copy.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates the heap the budget measures")
	}
	for _, tc := range []struct {
		workload string
		budgetMB float64
	}{
		{"chi-tcp", 20},
		{"mesh-forward", 36},
		{"isp-converge", 55},
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
			t.Logf("%s: %.2f MB in %d allocations", tc.workload, mb, after.Mallocs-before.Mallocs)
			if mb > tc.budgetMB {
				t.Errorf("%s allocated %.2f MB, budget %.0f MB", tc.workload, mb, tc.budgetMB)
			}
		})
	}
}
