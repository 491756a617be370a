package routing

import (
	"runtime"
	"testing"
	"time"

	"routerwatch/internal/consensus"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

// tableMatrix snapshots every daemon's full forwarding behaviour: next hop
// for every (router, inbound context, destination) triple.
func tableMatrix(t *testing.T, proto *Protocol, g *topology.Graph) map[[3]packet.NodeID]packet.NodeID {
	t.Helper()
	m := make(map[[3]packet.NodeID]packet.NodeID)
	for _, d := range proto.Daemons() {
		tbl := d.Table()
		if tbl == nil {
			t.Fatalf("router %v has no table", d.ID())
		}
		contexts := append([]packet.NodeID{d.ID()}, g.Neighbors(d.ID())...)
		for _, from := range contexts {
			for _, dst := range g.Nodes() {
				nh, ok := tbl.NextHop(from, dst)
				if !ok {
					nh = -1
				}
				m[[3]packet.NodeID{d.ID(), from, dst}] = nh
			}
		}
	}
	return m
}

func ispGraph(t *testing.T) *topology.Graph {
	t.Helper()
	return topology.ISP(topology.ISPSpec{Nodes: 96, PoPs: 4, Seed: 11})
}

// All scale options on: the substrate must still converge to exactly the
// tables the legacy per-router/per-LSA path computes.
func TestScaleOptionsConvergeToLegacyTables(t *testing.T) {
	g := ispGraph(t)
	timers := Timers{Delay: time.Second, Hold: 2 * time.Second}

	legacyNet := network.New(g.Clone(), network.Options{Seed: 5})
	legacy := Attach(legacyNet, consensus.NewService(legacyNet), Options{Timers: timers})
	if !legacy.RunUntilConverged(5 * time.Minute) {
		t.Fatal("legacy path did not converge")
	}

	scaledNet := network.New(g.Clone(), network.Options{Seed: 5})
	scaled := Attach(scaledNet, consensus.NewService(scaledNet), Options{
		Timers:         timers,
		StaggerRegions: true,
		BundleFlood:    true,
		BatchCompute:   true,
	})
	if !scaled.RunUntilConverged(5 * time.Minute) {
		t.Fatal("scaled path did not converge")
	}

	want := tableMatrix(t, legacy, g)
	got := tableMatrix(t, scaled, g)
	if len(want) != len(got) {
		t.Fatalf("matrix sizes differ: %d vs %d", len(want), len(got))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("next hop mismatch at router %v from %v dst %v: legacy %v, scaled %v",
				k[0], k[1], k[2], v, got[k])
		}
	}
}

// Batch preparation must be invariant in the worker count, which is
// GOMAXPROCS.
func TestBatchComputeWorkerInvariance(t *testing.T) {
	g := ispGraph(t)
	timers := Timers{Delay: time.Second, Hold: 2 * time.Second}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(workers int) map[[3]packet.NodeID]packet.NodeID {
		runtime.GOMAXPROCS(workers)
		net := network.New(g.Clone(), network.Options{Seed: 9})
		p := Attach(net, consensus.NewService(net), Options{Timers: timers, BatchCompute: true})
		if !p.RunUntilConverged(5 * time.Minute) {
			t.Fatalf("workers=%d did not converge", workers)
		}
		return tableMatrix(t, p, g)
	}
	serial := run(1)
	for _, w := range []int{4, 8} {
		if got := run(w); len(got) != len(serial) {
			t.Fatalf("workers=%d: matrix size %d vs %d", w, len(got), len(serial))
		} else {
			for k, v := range serial {
				if got[k] != v {
					t.Fatalf("workers=%d: mismatch at %v", w, k)
				}
			}
		}
	}
}

// Bundled flooding alone (no batching) still converges and the bundles
// terminate: total control traffic is finite and tables match legacy.
func TestBundleFloodConverges(t *testing.T) {
	g := ispGraph(t)
	timers := Timers{Delay: time.Second, Hold: 2 * time.Second}

	legacyNet := network.New(g.Clone(), network.Options{Seed: 3})
	legacy := Attach(legacyNet, consensus.NewService(legacyNet), Options{Timers: timers})
	if !legacy.RunUntilConverged(5 * time.Minute) {
		t.Fatal("legacy did not converge")
	}

	net := network.New(g.Clone(), network.Options{Seed: 3})
	p := Attach(net, consensus.NewService(net), Options{Timers: timers, BundleFlood: true})
	if !p.RunUntilConverged(5 * time.Minute) {
		t.Fatal("bundled flooding did not converge")
	}
	want := tableMatrix(t, legacy, g)
	got := tableMatrix(t, p, g)
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("bundled tables diverge at %v: %v vs %v", k, v, got[k])
		}
	}
}
