package routerwatch

// The benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (see DESIGN.md's per-experiment index and
// EXPERIMENTS.md for paper-vs-measured). Each benchmark runs the
// corresponding experiment end to end and reports the headline quantity as
// a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates the entire evaluation.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"routerwatch/internal/auth"
	"routerwatch/internal/capture"
	"routerwatch/internal/experiments"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	_ "routerwatch/internal/protocol/catalog"
	"routerwatch/internal/summary"
	"routerwatch/internal/topology"
)

// BenchmarkFig5_2 regenerates the Π2 monitoring-state figure (max/avg/
// median |Pr| vs k on the Sprintlink- and EBONE-scale topologies).
func BenchmarkFig5_2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs := experiments.Fig5_2(8, 0)
		sprint := figs[0]
		b.ReportMetric(sprint.Stats[1].Mean, "avgPr(k=2)")
		b.ReportMetric(float64(sprint.WatchersMean), "watchersCounters")
	}
}

// BenchmarkFig5_4 regenerates the Πk+2 monitoring-state figure.
func BenchmarkFig5_4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs := experiments.Fig5_4(8, 0)
		sprint := figs[0]
		b.ReportMetric(sprint.Stats[1].Mean, "avgPr(k=2)")
	}
}

// BenchmarkFig5_7 regenerates the Fatih timeline (Abilene, Kansas City
// compromise): detection latency, reroute latency, RTT shift.
func BenchmarkFig5_7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _ := experiments.Fig5_7(int64(5 + i))
		b.ReportMetric((res.FirstDetectionAt - res.AttackAt).Seconds(), "detect-s")
		b.ReportMetric((res.RerouteAt - res.FirstDetectionAt).Seconds(), "reroute-s")
		b.ReportMetric(float64(res.PreAttackRTT.Milliseconds()), "rttBefore-ms")
		b.ReportMetric(float64(res.PostRerouteRTT.Milliseconds()), "rttAfter-ms")
	}
}

// BenchmarkFig6_2 regenerates the single-loss confidence curve.
func BenchmarkFig6_2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig6_2(50_000, 1000, 0, 1500)
	}
}

// BenchmarkFig6_3 regenerates the qerror distribution study.
func BenchmarkFig6_3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, _ := experiments.Fig6_3(int64(77 + i))
		b.ReportMetric(rep.StdDev, "qerror-sd-bytes")
		b.ReportMetric(rep.Skewness, "skew")
	}
}

func reportChi(b *testing.B, res *experiments.ChiResult) {
	b.Helper()
	detected := 0.0
	if res.Detected() {
		detected = 1
	}
	b.ReportMetric(detected, "detected")
	b.ReportMetric(float64(res.AttackerDropped), "attackDrops")
	if res.FirstDetectionAt > 0 {
		b.ReportMetric(res.FirstDetectionAt.Seconds(), "firstDetect-s")
	}
}

// BenchmarkFig6_5 regenerates the drop-tail no-attack run (must stay
// silent despite congestion).
func BenchmarkFig6_5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig6_5(int64(3001 + i))
		reportChi(b, res)
	}
}

// BenchmarkFig6_6 regenerates attack 1: drop 20% of the selected flows.
func BenchmarkFig6_6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChi(b, experiments.Fig6_6(int64(3101+i)))
	}
}

// BenchmarkFig6_7 regenerates attack 2: drop when the queue is 90% full.
func BenchmarkFig6_7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChi(b, experiments.Fig6_7(int64(3201+i)))
	}
}

// BenchmarkFig6_8 regenerates attack 3: drop when the queue is 95% full.
func BenchmarkFig6_8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChi(b, experiments.Fig6_8(int64(3301+i)))
	}
}

// BenchmarkFig6_9 regenerates attack 4: the SYN drop.
func BenchmarkFig6_9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChi(b, experiments.Fig6_9(int64(3401+i)))
	}
}

// BenchmarkChiVsThreshold regenerates the §6.4.3 comparison.
func BenchmarkChiVsThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunChiVsThreshold(int64(3501 + i))
		b.ReportMetric(float64(res.CongestionCeiling), "congestionCeiling")
		detected := 0.0
		if res.Chi.Detected() {
			detected = 1
		}
		b.ReportMetric(detected, "chiDetected")
	}
}

// BenchmarkFig6_11 regenerates the RED no-attack run.
func BenchmarkFig6_11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChi(b, experiments.Fig6_11(int64(3601+i)))
	}
}

// BenchmarkFig6_12 regenerates RED attack 1 (mask above avg 45 kB).
func BenchmarkFig6_12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChi(b, experiments.Fig6_12(int64(3701+i)))
	}
}

// BenchmarkFig6_13 regenerates RED attack 2 (mask above avg 54 kB).
func BenchmarkFig6_13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChi(b, experiments.Fig6_13(int64(3801+i)))
	}
}

// BenchmarkFig6_14 regenerates RED attack 3 (10% above avg 45 kB).
func BenchmarkFig6_14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChi(b, experiments.Fig6_14(int64(3901+i)))
	}
}

// BenchmarkFig6_15 regenerates RED attack 4 (5% above avg 45 kB).
func BenchmarkFig6_15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChi(b, experiments.Fig6_15(int64(4001+i)))
	}
}

// BenchmarkFig6_16 regenerates RED attack 5 (SYN drop).
func BenchmarkFig6_16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportChi(b, experiments.Fig6_16(int64(4101+i)))
	}
}

// BenchmarkArchitectures regenerates the §2.3/§2.4 validation-architecture
// design-space matrix.
func BenchmarkArchitectures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunArchitectures(int64(4301 + i))
		detected := 0
		for _, row := range res.Rows {
			if row.Detected {
				detected++
			}
		}
		b.ReportMetric(float64(detected), "architecturesDetecting")
	}
}

// BenchmarkOverhead regenerates the §2.4.1 summary-size and Πk+2
// exchange-bandwidth comparisons.
func BenchmarkOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.SummarySizeTable([]int{100, 1000, 10000}, 12)
		_ = experiments.ExchangeBandwidthTable(int64(4401 + i))
	}
}

// BenchmarkStateSize regenerates the §5.1.1/§7.2 state comparison.
func BenchmarkStateSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.StateSizeTable(topology.SprintlinkSpec(), 2)
		_ = experiments.StateSizeTable(topology.EBONESpec(), 2)
	}
}

// BenchmarkWatchersFlaw regenerates the §3.1 consorting-routers table.
func BenchmarkWatchersFlaw(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.WatchersFlawTable(int64(4201 + i))
	}
}

// BenchmarkPerlmanFlaw regenerates the §3.7/§3.3 analysis.
func BenchmarkPerlmanFlaw(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.PerlmanFlawTable()
	}
}

// BenchmarkFingerprints measures §7.1's per-packet cost of summary
// generation: keyed fingerprint computation throughput.
func BenchmarkFingerprints(b *testing.B) {
	h := packet.NewHasher(1, 2)
	p := &packet.Packet{ID: 9, Src: 1, Dst: 2, Flow: 77, Seq: 3, Size: 1500, Payload: 42}
	b.SetBytes(int64(p.Size))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.ID = uint64(i)
		_ = h.Fingerprint(p)
	}
}

// BenchmarkSummaryUpdate measures the §7.1 per-packet cost of maintaining
// a conservation-of-content summary (fingerprint + multiset insert).
func BenchmarkSummaryUpdate(b *testing.B) {
	h := packet.NewHasher(1, 2)
	p := &packet.Packet{ID: 9, Src: 1, Dst: 2, Flow: 77, Seq: 3, Size: 1500, Payload: 42}
	s := summary.NewFPSet()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.ID = uint64(i)
		s.Add(h.Fingerprint(p))
	}
}

// BenchmarkSetReconciliation measures Appendix A's bandwidth-optimal
// summary comparison: recovering an 8-element difference between
// 1000-element fingerprint sets.
func BenchmarkSetReconciliation(b *testing.B) {
	shared := make([]uint64, 1000)
	for i := range shared {
		shared[i] = uint64(i)*2654435761 + 7
	}
	sa := append(append([]uint64(nil), shared...), 11, 22, 33, 44)
	sb := append(append([]uint64(nil), shared...), 55, 66, 77, 88)
	points := summary.ReconcilePoints(10)
	ea := summary.EvaluateCharPoly(sa, points)
	eb := summary.EvaluateCharPoly(sb, points)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := summary.Reconcile(ea, eb, points, len(sa), len(sb)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSigning measures the control-plane signature cost (§7.1).
func BenchmarkSigning(b *testing.B) {
	a := auth.NewAuthority(1)
	msg := make([]byte, 512)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Sign(3, msg)
	}
}

// BenchmarkFigureSuite measures the parallel experiment runner end to end:
// a fixed subset of the evaluation fanned out over 1 worker (the serial
// baseline) and over GOMAXPROCS workers. The reported speedup metric is
// cumulative trial time over wall time; on a multi-core host it approaches
// the worker count, and stdout-equivalent output is asserted by the
// determinism suite, not here.
func BenchmarkFigureSuite(b *testing.B) {
	subset := []string{"5.2", "5.4", "6.2", "state", "perlman", "watchers"}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, rep := experiments.RunSuite(experiments.SuiteOptions{
					Seed: 1, MaxK: 6, Workers: workers,
				}, subset)
				b.ReportMetric(rep.Speedup(), "speedup")
				b.ReportMetric(rep.Utilization(), "utilization")
			}
		})
	}
}

// BenchmarkFatihTrials measures multi-seed trial fan-out: N independent
// Abilene compromise scenarios per iteration, serial vs full-width.
func BenchmarkFatihTrials(b *testing.B) {
	const trials = 4
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := experiments.FatihTrials(int64(9000+i), trials, workers, nil)
				b.ReportMetric(float64(res.Detected)/trials, "detectRate")
				b.ReportMetric(res.Report.Speedup(), "speedup")
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed on an
// uncongested line: hops forwarded per wall second, and the scheduler events
// each hop cost beyond the injection that started the packet (sanity metric
// for the harness itself, not a paper figure).
func BenchmarkSimulatorThroughput(b *testing.B) {
	const packets, hops = 5000, 3
	var events uint64
	for i := 0; i < b.N; i++ {
		g := topology.Line(hops + 1)
		net := network.New(g, network.Options{Seed: int64(i)})
		for j := 0; j < packets; j++ {
			j := j
			net.Scheduler().At(time.Duration(j)*100*time.Microsecond, func() {
				net.Inject(0, &packet.Packet{Dst: hops, Size: 500, Seq: uint32(j)})
			})
		}
		net.Run(5 * time.Second)
		events += net.Scheduler().Fired() - packets
	}
	forwarded := float64(b.N) * packets * hops
	b.ReportMetric(float64(events)/forwarded, "events/hop")
	b.ReportMetric(forwarded/b.Elapsed().Seconds(), "hops/s")
}

// BenchmarkTraceReplay measures the capture subsystem's replay path: each
// iteration opens the committed line5drop fixture (4 simulated seconds,
// ~11k recorded packet events across 5 routers), attaches Πk+2, and
// replays to the recorded horizon — decode, merge, dispatch and detection
// included.
func BenchmarkTraceReplay(b *testing.B) {
	d, err := protocol.Lookup("pik2")
	if err != nil {
		b.Fatal(err)
	}
	opts, err := d.ParseOptions(protocol.Params{
		"k": "1", "round": "1s", "timeout": "250ms",
		"loss-threshold": "2", "fabrication-threshold": "2",
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env, err := capture.OpenTrace("internal/capture/testdata/line5drop", capture.TraceOptions{})
		if err != nil {
			b.Fatal(err)
		}
		hooks, logbook := protocol.LogHooks()
		if _, err := protocol.Attach(env, "pik2", opts, hooks); err != nil {
			b.Fatal(err)
		}
		env.Run(0)
		if err := env.Err(); err != nil {
			b.Fatal(err)
		}
		if logbook.Len() == 0 {
			b.Fatal("replay produced no suspicions")
		}
		env.Close()
	}
}

// benchISPSpec is the ISP-scale benchmark scenario: Πk+2 over a generated
// 200-router hierarchical ISP topology, link-state routing, and a 100-pair
// random traffic mesh.
func benchISPSpec() *protocol.Spec {
	return &protocol.Spec{
		Name:     "bench-isp",
		Protocol: "pik2",
		Options: protocol.Params{
			"k": "1", "round": "1s", "timeout": "250ms",
			"loss-threshold": "2", "fabrication-threshold": "2",
		},
		Seed:     1,
		Duration: protocol.Duration(8 * time.Second),
		Topology: protocol.TopologySpec{Kind: "isp", N: 200, Pops: 8, Seed: 7},
		Routing: &protocol.RoutingSpec{
			Delay: protocol.Duration(time.Second), Hold: protocol.Duration(2 * time.Second),
			Converge: protocol.Duration(2 * time.Minute),
		},
		Traffic: []protocol.TrafficSpec{{
			Kind: "mesh", Pairs: 100, Count: 200,
			Interval: protocol.Duration(5 * time.Millisecond),
			Offset:   protocol.Duration(time.Microsecond),
			Size:     500, Flow: 1,
		}},
	}
}

// BenchmarkISPSim measures the whole stack end to end on the generated ISP
// topology: topology build, routing convergence, detector, traffic.
func BenchmarkISPSim(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := protocol.Run(benchISPSpec(), protocol.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Net.Now() == 0 {
			b.Fatal("benchmark run did not advance the clock")
		}
	}
}
