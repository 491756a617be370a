package pik2

import (
	"errors"
	"os"
	"runtime"
	"testing"

	"routerwatch/internal/network"
	"routerwatch/internal/protocol"
	"routerwatch/internal/topology"
)

// ispConverge is the 500-router graph of the isp-converge workload, read in
// place, with its path table built, as a run builds it before attach.
func ispConverge(tb testing.TB) *topology.Graph {
	const path = "../../../bench/workloads/isp-converge.json"
	data, err := os.ReadFile(path)
	spec, decodeErr := protocol.DecodeSpec(data)
	if err = errors.Join(err, decodeErr); err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	g, err := spec.Topology.Build()
	if err != nil {
		tb.Fatalf("%s: %v", path, err)
	}
	g.CSR().Paths()
	return g
}

// attachAllocs attaches Πk+2 to a fresh network over g and returns the heap
// allocations the attach made and the watches it set up.
func attachAllocs(g *topology.Graph, k int) (allocs uint64, watches int) {
	env := protocol.NewSimEnv(network.New(g, network.Options{Seed: 1}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := Attach(env, Options{K: k})
	runtime.ReadMemStats(&after)
	for _, a := range p.agents {
		watches += len(a.segs)
	}
	return after.Mallocs - before.Mallocs, watches
}

// TestAttachAllocatesPerRouter: a router's watches cost it no allocation
// of their own — per-segment state sits in one slice per router, links and
// reversed exchange paths in chunks per deployment, and the segment table
// numbers every segment once without a key per segment — so raising k from
// 1 to 2 on the isp-converge graph adds 70% more watches but under 10% more
// allocations (the per-watch attach made it 66% more: 100 634 → 166 943).
func TestAttachAllocatesPerRouter(t *testing.T) {
	g := ispConverge(t)
	allocs1, watches1 := attachAllocs(g, 1)
	allocs2, watches2 := attachAllocs(g, 2)
	t.Logf("k=1: %d allocations for %d watches; k=2: %d for %d", allocs1, watches1, allocs2, watches2)
	if 2*watches2 < 3*watches1 {
		t.Fatalf("k=2 sets up %d watches, k=1 %d: want at least half as many again", watches2, watches1)
	}
	if 10*allocs2 > 11*allocs1 {
		t.Fatalf("k=2 costs %d allocations, k=1 %d: want under 10%% more", allocs2, allocs1)
	}
}

// BenchmarkAttach deploys Πk+2 at k=1 on the isp-converge graph, whose path
// table is built already: what attach costs per deployment.
func BenchmarkAttach(b *testing.B) {
	g := ispConverge(b)
	b.ReportAllocs()
	var watches int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		env := protocol.NewSimEnv(network.New(g, network.Options{Seed: 1}))
		b.StartTimer()
		p := Attach(env, Options{K: 1})
		watches = 0
		for _, a := range p.agents {
			watches += len(a.segs)
		}
	}
	b.ReportMetric(float64(watches), "watches/op")
}
