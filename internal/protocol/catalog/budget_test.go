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
// when all five were paid; 50.3 MB and 269 k without them).
func TestAssembleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector inflates the heap the budget measures")
	}
	const (
		budgetMB     = 56
		budgetAllocs = 290_000
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
