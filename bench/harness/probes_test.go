package harness

import (
	"time"

	"routerwatch/internal/auth"
	"routerwatch/internal/packet"
	"routerwatch/internal/queue"
	"routerwatch/internal/routing"
	"routerwatch/internal/sim"
	"routerwatch/internal/summary"
	"routerwatch/internal/topology"
)

// sink keeps the compiler from discarding a probe's work.
var sink uint64

// prober times fixed amounts of work under one parent span. scale divides
// every operation count; the smoke tests raise it so that a traced run
// takes milliseconds.
type prober struct {
	tr    *tracer
	root  int
	scale int
}

// perOp times n/scale calls of op under a span and returns nanoseconds per
// call.
func (p *prober) perOp(name string, n int, op func(i int)) float64 {
	n = max(n/p.scale, 1)
	s := p.tr.timed(name, p.root, func() {
		for i := 0; i < n; i++ {
			op(i)
		}
	})
	return s * 1e9 / float64(n)
}

// probes times each leaf layer's public API on its own: a fixed amount of
// work per probe, so a number moves only when the layer does. g and excl
// are the workload's graph and the exclusions its routing fabric ended
// with (nil when it has none); pending sizes the event-kernel probe's heap
// like the workload's.
func probes(tr *tracer, quick bool, g *topology.Graph, excl *routing.Exclusions, pending int, layers map[string]float64, absent map[string]string) {
	p := &prober{tr: tr, root: tr.begin("probes", 0), scale: 1}
	defer tr.end(p.root)
	if quick {
		p.scale = 100
	}

	// Event kernel: pending self-re-arming no-op events, two million fired.
	kernelEvents := uint64(2_000_000 / p.scale)
	sched := sim.New()
	var rearm sim.Callback
	rearm = func(arg any, n int64) { sched.CallAfter(time.Millisecond, rearm, nil, n) }
	for i := 0; i < pending; i++ {
		sched.CallAfter(time.Duration(i)*time.Millisecond/time.Duration(pending), rearm, nil, int64(i))
	}
	kernel := tr.timed("sim.kernel", p.root, func() {
		for sched.Fired() < kernelEvents {
			sched.Step()
		}
	})
	layers["sim.kernel_ns_per_event"] = kernel * 1e9 / float64(kernelEvents)

	// Queues: a million packets offered at twice the drain rate, so the
	// buffer fills and both the accept and the drop path run.
	const queuePackets = 1_000_000
	cfg := queue.DefaultREDConfig(topology.DefaultLinkAttrs().Bandwidth)
	pkts := make([]packet.Packet, 256)
	for i := range pkts {
		pkts[i].Size = 1000
	}
	for _, probe := range []struct {
		name string
		q    queue.Discipline
	}{
		{"queue.droptail_ns_per_pkt", queue.NewDropTail(cfg.Limit)},
		{"queue.red_ns_per_pkt", queue.NewRED(cfg, sim.NewRNG(1))},
	} {
		q := probe.q
		layers[probe.name] = p.perOp(probe.name, queuePackets, func(i int) {
			now := time.Duration(i) * 100 * time.Microsecond
			q.Enqueue(&pkts[i%len(pkts)], now)
			if i%2 == 1 {
				q.Dequeue(now)
			}
		})
	}

	// Fingerprints and summaries.
	h := packet.NewHasher(1, 2)
	pkt := &packet.Packet{ID: 9, Src: 1, Dst: 2, Flow: 77, Seq: 3, Size: 1500, Payload: 42}
	layers["packet.fingerprint_ns"] = p.perOp("packet.fingerprint", 2_000_000, func(i int) {
		pkt.ID = uint64(i)
		sink += uint64(h.Fingerprint(pkt))
	})
	fps := summary.NewFPSet()
	layers["summary.fpset_add_ns"] = p.perOp("summary.fpset_add", 1_000_000, func(i int) {
		fps.Add(packet.Fingerprint(uint64(i%4096) * 2654435761))
	})
	set := summary.NewFPSet()
	shared := make([]uint64, 1000)
	for i := range shared {
		shared[i] = uint64(i)*2654435761 + 7
		set.Add(packet.Fingerprint(shared[i]))
	}
	var enc []byte
	layers["summary.fpset_encode_ns_per_fp"] = p.perOp("summary.fpset_encode", 1000, func(int) {
		enc = set.AppendEncode(enc[:0])
	}) / float64(len(shared))
	cb := summary.NewCountingBloom(4096, 0.01)
	layers["summary.cbloom_add_ns"] = p.perOp("summary.cbloom_add", 2_000_000, func(i int) {
		cb.Add(packet.Fingerprint(uint64(i%4096) * 2654435761))
	})
	// Reconcile two 1004-element sets that differ in eight elements.
	sa := append(append([]uint64(nil), shared...), 11, 22, 33, 44)
	sb := append(append([]uint64(nil), shared...), 55, 66, 77, 88)
	points := summary.ReconcilePoints(10)
	ea, eb := summary.EvaluateCharPoly(sa, points), summary.EvaluateCharPoly(sb, points)
	var reconcileErr error
	layers["summary.reconcile_us"] = p.perOp("summary.reconcile", 200, func(int) {
		if _, _, err := summary.Reconcile(ea, eb, points, len(sa), len(sb)); err != nil {
			reconcileErr = err
		}
	}) / 1e3
	if reconcileErr != nil {
		layers["summary.reconcile_us"] = 0
		absent["summary.reconcile_us"] = reconcileErr.Error()
	}

	// Signatures: 512-byte bodies, batches of 64.
	const batch = 64
	a := auth.NewAuthority(1)
	bodies := make([][]byte, batch)
	for i := range bodies {
		bodies[i] = make([]byte, 512)
		bodies[i][0] = byte(i)
	}
	sig := a.Sign(3, bodies[0])
	layers["auth.sign_ns"] = p.perOp("auth.sign", 200_000, func(int) { sig = a.Sign(3, bodies[0]) })
	layers["auth.verify_ns"] = p.perOp("auth.verify", 200_000, func(int) {
		if a.Verify(bodies[0], sig) {
			sink++
		}
	})
	var sigs []auth.Signature
	layers["auth.signbatch_ns_per_msg"] = p.perOp("auth.signbatch", 4000, func(int) {
		sigs = a.SignBatch(3, bodies, sigs[:0])
	}) / batch
	tag := a.AggregateTag(3, bodies)
	layers["auth.aggregate_verify_ns_per_tag"] = p.perOp("auth.aggregate_verify", 4000, func(int) {
		if a.VerifyAggregate(bodies, tag) {
			sink++
		}
	}) / batch

	// SPF: whole forwarding tables for up to 64 evenly spaced routers.
	routers := g.Nodes()
	if step := len(routers) / 64; step > 1 {
		var spaced []packet.NodeID
		for i := 0; i < len(routers); i += step {
			spaced = append(spaced, routers[i])
		}
		routers = spaced
	}
	spf := func(name string, excl *routing.Exclusions) float64 {
		return p.perOp(name, len(routers), func(i int) {
			routing.ComputeTable(g, routers[i], excl)
		}) / 1e6
	}
	layers["routing.spf_table_ms"] = spf("routing.spf_table", routing.NewExclusions())
	if excl != nil && excl.Len() > 0 {
		layers["routing.spf_excl_table_ms"] = spf("routing.spf_excl_table", excl)
	} else {
		absent["routing.spf_excl_table_ms"] = "the run ended with no exclusions"
	}
}
