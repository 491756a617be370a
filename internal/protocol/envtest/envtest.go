// Package envtest is the reusable protocol.Env contract suite: every Env
// backend — SimEnv today, internal/capture's TraceEnv, the future live
// daemon — must pass the same checks, so detection protocols can attach to
// any of them without re-auditing the substrate. PR 5's cross-protocol
// conformance test established these properties against SimEnv inline;
// this package extracts them behind a backend factory, plus the §4.2.2
// suspicion-log judges the scenario conformance tests share.
package envtest

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"routerwatch/internal/consensus"
	"routerwatch/internal/detector"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
)

// Factory builds a fresh backend positioned at virtual time zero. Each
// subtest consumes its own backend (clocks cannot rewind). Backends must
// have at least two routers, a connected graph, and Horizon() >= 1s — the
// suite schedules all its activity inside the first second.
type Factory func(t *testing.T) protocol.Backend

// Run drives the full Env contract suite against the factory's backends.
func Run(t *testing.T, f Factory) {
	t.Run("Clock", func(t *testing.T) { testClock(t, f) })
	t.Run("Nodes", func(t *testing.T) { testNodes(t, f) })
	t.Run("Auth", func(t *testing.T) { testAuth(t, f) })
	t.Run("Hasher", func(t *testing.T) { testHasher(t, f) })
	t.Run("RNG", func(t *testing.T) { testRNG(t, f) })
	t.Run("Control", func(t *testing.T) { testControl(t, f) })
	t.Run("Flood", func(t *testing.T) { testFlood(t, f) })
	t.Run("Determinism", func(t *testing.T) { testDeterminism(t, f) })
}

// open builds a backend and registers cleanup.
func open(t *testing.T, f Factory) protocol.Backend {
	t.Helper()
	b := f(t)
	t.Cleanup(func() { b.Close() })
	if b.Horizon() < time.Second {
		t.Fatalf("backend horizon %v; the suite needs >= 1s", b.Horizon())
	}
	return b
}

// testClock checks the virtual clock: At/After/Every dispatch in time
// order, equal-time events in insertion order, and Now() equals the
// scheduled instant inside a callback.
func testClock(t *testing.T, f Factory) {
	b := open(t, f)
	env := b.Env()
	if env.Now() != 0 {
		t.Fatalf("fresh backend Now() = %v, want 0", env.Now())
	}
	var got []string
	note := func(label string, want time.Duration) func() {
		return func() {
			if env.Now() != want {
				t.Errorf("%s fired at %v, want %v", label, env.Now(), want)
			}
			got = append(got, label)
		}
	}
	env.At(20*time.Millisecond, note("at20", 20*time.Millisecond))
	env.At(10*time.Millisecond, note("at10a", 10*time.Millisecond))
	env.At(10*time.Millisecond, note("at10b", 10*time.Millisecond))
	env.After(5*time.Millisecond, note("after5", 5*time.Millisecond))
	ticks := 0
	tk := env.Every(8*time.Millisecond, func() {
		ticks++
		got = append(got, fmt.Sprintf("tick%d", ticks))
	})
	b.Run(30 * time.Millisecond)
	tk.Stop()
	want := []string{"after5", "tick1", "at10a", "at10b", "tick2", "at20", "tick3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("dispatch order %v, want %v", got, want)
	}
	if env.Now() != 30*time.Millisecond {
		t.Errorf("Now() after Run = %v, want 30ms", env.Now())
	}
}

// testNodes checks the node list: non-empty, strictly ascending IDs, and
// consistent with the graph.
func testNodes(t *testing.T, f Factory) {
	b := open(t, f)
	env := b.Env()
	nodes := env.Nodes()
	if len(nodes) < 2 {
		t.Fatalf("%d nodes; the suite needs >= 2", len(nodes))
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i] <= nodes[i-1] {
			t.Fatalf("nodes not strictly ascending: %v", nodes)
		}
	}
	g := env.Graph()
	if g.NumNodes() != len(nodes) {
		t.Errorf("graph has %d nodes, env lists %d", g.NumNodes(), len(nodes))
	}
	if !g.Connected() {
		t.Error("backend graph is not connected")
	}
}

// testAuth checks the signer: round-trip verification and tamper
// rejection.
func testAuth(t *testing.T, f Factory) {
	b := open(t, f)
	env := b.Env()
	a := env.Auth()
	nodes := env.Nodes()
	msg := []byte("envtest message")
	sig := a.Sign(nodes[0], msg)
	if !a.Verify(msg, sig) {
		t.Error("signature by node 0 does not verify")
	}
	bad := append(bytes.Clone(msg), '!')
	if a.Verify(bad, sig) {
		t.Error("tampered message verifies")
	}
}

// testHasher checks fingerprint stability and content sensitivity.
func testHasher(t *testing.T, f Factory) {
	b := open(t, f)
	h := b.Env().Hasher()
	p := packet.Packet{ID: 7, Src: 0, Dst: 1, Flow: 3, Seq: 9, Payload: 42, Size: 500}
	if h.Fingerprint(&p) != h.Fingerprint(&p) {
		t.Error("fingerprint not stable")
	}
	q := p
	q.Payload++
	if h.Fingerprint(&p) == h.Fingerprint(&q) {
		t.Error("fingerprint ignores payload")
	}
	q = p
	q.TTL = 17
	if h.Fingerprint(&p) != h.Fingerprint(&q) {
		t.Error("fingerprint depends on TTL (a mutable field)")
	}
}

// testRNG checks seeded stream discipline: per-stream determinism and
// stream independence.
func testRNG(t *testing.T, f Factory) {
	b := open(t, f)
	env := b.Env()
	r1, r2 := env.RNG(7), env.RNG(7)
	for i := 0; i < 16; i++ {
		if a, b := r1.Int63(), r2.Int63(); a != b {
			t.Fatalf("stream 7 draws diverge at %d: %d vs %d", i, a, b)
		}
	}
	if env.RNG(7).Int63() == env.RNG(8).Int63() {
		t.Error("streams 7 and 8 start identically")
	}
	if env.Seed() != b.Env().Seed() {
		t.Error("Seed() not stable")
	}
}

// testControl checks the control plane: a message sent between two routers
// is delivered to the registered handler, later than it was sent, with
// kind and payload intact.
func testControl(t *testing.T, f Factory) {
	b := open(t, f)
	env := b.Env()
	nodes := env.Nodes()
	from, to := nodes[0], nodes[1]
	var deliveredAt time.Duration
	var gotPayload any
	env.HandleControl(to, "envtest/ping", func(m *network.ControlMessage) {
		deliveredAt = env.Now()
		gotPayload = m.Payload
		if m.From != from || m.To != to {
			t.Errorf("delivered endpoints %v->%v, want %v->%v", m.From, m.To, from, to)
		}
	})
	env.At(time.Millisecond, func() {
		env.SendControl(network.ControlMessage{
			From: from, To: to, Kind: "envtest/ping", Payload: "pong",
			Path: env.Graph().CSR().Paths().Path(from, to),
		})
	})
	b.Run(time.Second)
	if gotPayload == nil {
		t.Fatal("control message never delivered")
	}
	if gotPayload != "pong" {
		t.Errorf("payload %v, want pong", gotPayload)
	}
	if deliveredAt <= time.Millisecond {
		t.Errorf("delivered at %v, want later than the 1ms send", deliveredAt)
	}
}

// testFlood checks robust flooding: every router receives a flooded value
// exactly once, with the origin and payload intact.
func testFlood(t *testing.T, f Factory) {
	b := open(t, f)
	env := b.Env()
	nodes := env.Nodes()
	got := make(map[packet.NodeID]int, len(nodes))
	for _, id := range nodes {
		id := id
		env.Flood().Subscribe(id, "envtest/topic", func(m consensus.Msg) {
			got[id]++
			if m.Origin != nodes[0] {
				t.Errorf("%v received origin %v, want %v", id, m.Origin, nodes[0])
			}
			if string(m.Payload) != "hello" {
				t.Errorf("%v received payload %q", id, m.Payload)
			}
		})
	}
	env.At(time.Millisecond, func() {
		env.Flood().Flood(nodes[0], "envtest/topic", "round-1", []byte("hello"))
	})
	b.Run(time.Second)
	for _, id := range nodes {
		if got[id] != 1 {
			t.Errorf("%v delivered %d times, want exactly once", id, got[id])
		}
	}
}

// testDeterminism runs an identical control+flood+timer script on two
// independent backends and requires bitwise-identical transcripts — the
// property every suspicion-log comparison in the tree rests on.
func testDeterminism(t *testing.T, f Factory) {
	script := func(b protocol.Backend) string {
		defer b.Close()
		env := b.Env()
		var buf bytes.Buffer
		nodes := env.Nodes()
		last := nodes[len(nodes)-1]
		for _, id := range nodes {
			id := id
			env.HandleControl(id, "envtest/d", func(m *network.ControlMessage) {
				fmt.Fprintf(&buf, "ctrl %v@%v from %v\n", id, env.Now(), m.From)
			})
			env.Flood().Subscribe(id, "envtest/topic", func(m consensus.Msg) {
				fmt.Fprintf(&buf, "flood %v@%v origin %v\n", id, env.Now(), m.Origin)
			})
		}
		env.Every(3*time.Millisecond, func() {
			fmt.Fprintf(&buf, "tick@%v rng=%d\n", env.Now(), env.RNG(99).Int63())
		})
		env.At(time.Millisecond, func() {
			env.SendControl(network.ControlMessage{
				From: nodes[0], To: last, Kind: "envtest/d", Payload: "x",
				Path: env.Graph().CSR().Paths().Path(nodes[0], last),
			})
			env.Flood().Flood(last, "envtest/topic", "i", []byte("y"))
		})
		b.Run(100 * time.Millisecond)
		return buf.String()
	}
	a, c := script(f(t)), script(f(t))
	if a != c {
		t.Errorf("transcripts differ across identical backends:\n--- first\n%s--- second\n%s", a, c)
	}
	if a == "" {
		t.Error("empty transcript: the script observed nothing")
	}
}

// Detection bundles a completed run's suspicion log with its ground truth
// for the §4.2.2 judges. The same judgment applies whatever backend
// produced the log — simulation, trace replay, live capture.
type Detection struct {
	Log *detector.Log
	// Faulty lists the compromised routers; empty judges a clean run
	// (where any suspicion at all is a false accusation).
	Faulty []packet.NodeID
	// Accuracy is the protocol's a-Accuracy precision bound: the maximum
	// segment width a suspicion may implicate.
	Accuracy int
	// Complete, for flooding protocols, additionally requires every
	// correct router in Nodes to suspect the (first) faulty one.
	Complete bool
	Nodes    []packet.NodeID
}

// CheckDetection applies the §4.2.2 accuracy and completeness checkers to
// a completed run — the judging half of PR 5's conformance test, reusable
// against any backend's suspicion log.
func CheckDetection(t *testing.T, d Detection) {
	t.Helper()
	gt := detector.NewGroundTruth(d.Faulty, nil)
	if len(d.Faulty) == 0 {
		if v := detector.CheckAccuracy(d.Log, gt, d.Accuracy); len(v) != 0 {
			t.Errorf("clean run: %d false accusation(s), first %v", len(v), v[0])
		}
		return
	}
	if d.Log.Len() == 0 {
		t.Fatal("faulty router went undetected")
	}
	implicated := false
	for _, seg := range d.Log.Segments() {
		for _, f := range d.Faulty {
			if seg.Contains(f) {
				implicated = true
			}
		}
	}
	if !implicated {
		t.Errorf("no suspicion implicates the faulty router(s) %v", d.Faulty)
	}
	if v := detector.CheckAccuracy(d.Log, gt, d.Accuracy); len(v) != 0 {
		t.Errorf("%d accuracy violation(s) at bound %d, first %v", len(v), d.Accuracy, v[0])
	}
	if d.Complete {
		missing := detector.CheckCompleteness(d.Log, gt, d.Faulty[0], d.Nodes)
		if len(missing) != 0 {
			t.Errorf("completeness: correct routers %v never suspected %v", missing, d.Faulty[0])
		}
	}
}
