package routing

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"routerwatch/internal/consensus"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/telemetry"
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

// The convergence oracle: on ISP-96 (four regions, so origination is
// staggered) and on Abilene (untagged, so every router originates at
// t = 0), every daemon's converged table must forward exactly as
// ComputeTable on the true graph does, from every inbound context to every
// destination.
func TestConvergesToComputeTable(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *topology.Graph
	}{
		{"isp96", ispGraph(t)},
		{"abilene", topology.Abilene()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			net := network.New(g.Clone(), network.Options{Seed: 5})
			p := Attach(net, consensus.NewService(net), Timers{Delay: time.Second, Hold: 2 * time.Second})
			if !p.RunUntilConverged(5 * time.Minute) {
				t.Fatal("routing did not converge")
			}
			got := tableMatrix(t, p, g)
			for _, r := range g.Nodes() {
				want := ComputeTable(g, r, NewExclusions())
				for _, from := range append([]packet.NodeID{r}, g.Neighbors(r)...) {
					for _, dst := range g.Nodes() {
						nh, ok := want.NextHop(from, dst)
						if !ok {
							nh = -1
						}
						if k := [3]packet.NodeID{r, from, dst}; got[k] != nh {
							t.Fatalf("router %v from %v to %v: converged next hop %v, ComputeTable %v", r, from, dst, got[k], nh)
						}
					}
				}
			}
		})
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
		p := Attach(net, consensus.NewService(net), timers)
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

// Bundled floods terminate: a minute after convergence no event is left
// pending, and every daemon holds every origin's LSA.
func TestBundleFloodConverges(t *testing.T) {
	g := ispGraph(t)
	net := network.New(g.Clone(), network.Options{Seed: 3})
	p := Attach(net, consensus.NewService(net), Timers{Delay: time.Second, Hold: 2 * time.Second})
	if !p.RunUntilConverged(5 * time.Minute) {
		t.Fatal("bundled flooding did not converge")
	}
	net.Run(net.Now() + time.Minute)
	if n := net.Scheduler().Pending(); n != 0 {
		t.Fatalf("%d events pending a minute after convergence", n)
	}
	for _, d := range p.Daemons() {
		for o, lsa := range d.lsdb {
			if lsa == nil {
				t.Fatalf("router %v never heard origin %d's LSA", d.ID(), o)
			}
		}
	}
}

// A flush sends a copy of the daemon's pending scratch, which the next
// bundle reuses: a bundle already in flight must keep the LSAs it was sent
// with.
func TestBundleOutlivesPendingScratch(t *testing.T) {
	g := doorGraph()
	net := network.New(g, network.Options{Seed: 2})
	p := Attach(net, consensus.NewService(net), Timers{})
	var got [][]*LSA
	net.Router(1).HandleControl(KindLSABundle, func(m *network.ControlMessage) {
		if m.From == 0 {
			got = append(got, m.Payload.(*LSABundle).LSAs)
		}
	})
	d := p.Daemon(0)
	a, b, c := &LSA{Origin: 4, Seq: 1}, &LSA{Origin: 5, Seq: 1}, &LSA{Origin: 2, Seq: 1}
	d.enqueueFlood(a)
	d.enqueueFlood(b)
	d.flushPending()
	d.enqueueFlood(c)
	d.flushPending()
	net.Run(100 * time.Millisecond)
	if len(got) < 2 || !slices.Equal(got[0], []*LSA{a, b}) || !slices.Equal(got[1], []*LSA{c}) {
		t.Fatalf("router 1 heard bundles %v first, want [a b] then [c]", got)
	}
}

// rw_routing_tables_total counts installed tables by kernel: every router
// converges on a node-kernel table, and a suspected 3-segment forbids a
// transition, so every router's next table is an edge-kernel one.
func TestTablesCountedByKernel(t *testing.T) {
	g := ispGraph(t)
	tel := &telemetry.Set{Metrics: telemetry.NewRegistry()}
	net := network.New(g, network.Options{Seed: 5, Telemetry: tel})
	p := Attach(net, consensus.NewService(net), Timers{Delay: time.Second, Hold: 2 * time.Second})
	node := tel.Registry().Counter("rw_routing_tables_total", "kernel", "node")
	edge := tel.Registry().Counter("rw_routing_tables_total", "kernel", "edge")
	if !p.RunUntilConverged(5 * time.Minute) {
		t.Fatal("routing did not converge")
	}
	n := int64(g.NumNodes())
	if node.Value() != n || edge.Value() != 0 {
		t.Fatalf("converged: %d node and %d edge tables, want %d and 0", node.Value(), edge.Value(), n)
	}
	nbrs := g.Neighbors(7)
	p.Daemon(7).AnnounceSuspicion(topology.Segment{nbrs[0], 7, nbrs[1]})
	net.Run(net.Now() + time.Second)
	if !p.RunUntilConverged(net.Now() + 5*time.Minute) {
		t.Fatal("routing did not reconverge")
	}
	if node.Value() != n || edge.Value() != n {
		t.Fatalf("after the response: %d node and %d edge tables, want %d each", node.Value(), edge.Value(), n)
	}
}

// rw_routing_lsas_total counts the LSAs daemons accept as new and
// rw_routing_bundles_total the bundles they flush: a cold start over n
// routers accepts every origin's one LSA at every daemon, n², in fewer
// bundles than the LSAs they carry.
func TestLSAsAndBundlesCounted(t *testing.T) {
	g := ispGraph(t)
	n := int64(g.NumNodes())
	tel := &telemetry.Set{Metrics: telemetry.NewRegistry()}
	net := network.New(g, network.Options{Seed: 5, Telemetry: tel})
	p := Attach(net, consensus.NewService(net), Timers{})
	if !p.RunUntilConverged(5 * time.Minute) {
		t.Fatal("routing did not converge")
	}
	lsas := tel.Registry().Counter("rw_routing_lsas_total").Value()
	bundles := tel.Registry().Counter("rw_routing_bundles_total").Value()
	if lsas != n*n || bundles <= 0 || bundles >= lsas {
		t.Errorf("%d LSAs accepted and %d bundles flushed, want %d and fewer bundles", lsas, bundles, n*n)
	}
}
