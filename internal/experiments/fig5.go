package experiments

import (
	"fmt"
	"sort"

	"routerwatch/internal/baseline"
	"routerwatch/internal/fatih"
	"routerwatch/internal/packet"
	"routerwatch/internal/runner"
	"routerwatch/internal/telemetry"
	"routerwatch/internal/topology"
)

// PrFigure reproduces Fig 5.2 (Protocol Π2) or Fig 5.4 (Protocol Πk+2):
// the maximum, average and median number of path-segments |Pr| monitored by
// an individual router, as a function of the AdjacentFault(k) bound, on a
// Rocketfuel-like topology.
type PrFigure struct {
	Spec  topology.GeneratorSpec
	Mode  topology.MonitorMode
	Stats []topology.PrStats
	// WatchersMean and WatchersMax are the §5.1.1 comparison: counters a
	// router maintains under final-version WATCHERS on the same topology.
	WatchersMean, WatchersMax int
}

// RunPrFigure computes |Pr| statistics for k = 1..maxK, fanning the per-k
// sweeps out over `workers` goroutines (0 = GOMAXPROCS, 1 = serial). The
// graph and its path set are built once and shared read-only; each k is an
// independent trial, and the stats come back ordered by k, so the figure is
// identical for every worker count.
func RunPrFigure(spec topology.GeneratorSpec, mode topology.MonitorMode, maxK, workers int) *PrFigure {
	g := topology.Generate(spec)
	paths := g.CSR().Paths()
	f := &PrFigure{Spec: spec, Mode: mode}
	f.Stats, _ = runner.Map(runner.Config{Workers: workers}, maxK, func(tr runner.Trial) topology.PrStats {
		return topology.ComputePrStats(g, paths, tr.Index+1, mode)
	})
	total, max := 0, 0
	for _, r := range g.Nodes() {
		s := baseline.CounterStateSize(g, r)
		total += s
		if s > max {
			max = s
		}
	}
	f.WatchersMean = total / g.NumNodes()
	f.WatchersMax = max
	return f
}

// Table renders the figure's data.
func (f *PrFigure) Table() *Table {
	name := "Fig 5.4 (Πk+2, per path-segment ends)"
	if f.Mode == topology.ModeNodes {
		name = "Fig 5.2 (Π2, per path-segment nodes)"
	}
	t := &Table{
		Title:  fmt.Sprintf("%s — |Pr| on %s (%d routers, %d links)", name, f.Spec.Name, f.Spec.Nodes, f.Spec.Links),
		Header: []string{"k", "max|Pr|", "avg|Pr|", "median|Pr|"},
	}
	for _, s := range f.Stats {
		t.AddRow(s.K, s.Max, s.Mean, s.Median)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"WATCHERS on the same topology: %d counters/router mean, %d max (paper: ≈13,605 / 99,225 on measured Sprintlink)",
		f.WatchersMean, f.WatchersMax))
	return t
}

// Fig5_2 runs the Π2 monitoring-state figure on both measured-topology
// stand-ins.
func Fig5_2(maxK, workers int) []*PrFigure {
	return []*PrFigure{
		RunPrFigure(topology.SprintlinkSpec(), topology.ModeNodes, maxK, workers),
		RunPrFigure(topology.EBONESpec(), topology.ModeNodes, maxK, workers),
	}
}

// Fig5_4 runs the Πk+2 monitoring-state figure on both topologies.
func Fig5_4(maxK, workers int) []*PrFigure {
	return []*PrFigure{
		RunPrFigure(topology.SprintlinkSpec(), topology.ModeEnds, maxK, workers),
		RunPrFigure(topology.EBONESpec(), topology.ModeEnds, maxK, workers),
	}
}

// Fig5_7 runs the Fatih-in-progress timeline (Abilene, Kansas City
// compromise) and renders the events the paper plots.
func Fig5_7(seed int64) (*fatih.ScenarioResult, *Table) {
	return Fig5_7Telemetry(seed, nil)
}

// Fig5_7Telemetry is Fig5_7 with instrumentation: tel (which may be nil)
// observes the run's simulator, detector and scenario events.
func Fig5_7Telemetry(seed int64, tel *telemetry.Set) (*fatih.ScenarioResult, *Table) {
	res := fatih.RunAbilene(fatih.ScenarioOptions{Seed: seed, Telemetry: tel})
	g := res.System.Net.Graph()

	t := &Table{
		Title:  "Fig 5.7 — Fatih in progress (Abilene, Kansas City drops 20% of transit)",
		Header: []string{"event", "t"},
	}
	t.AddRow("routing converged", res.ConvergedAt)
	t.AddRow("attack starts", res.AttackAt)
	t.AddRow("first detection", res.FirstDetectionAt)
	t.AddRow("first reroute", res.RerouteAt)
	holders := make([]packet.NodeID, 0, len(res.DetectionsBy))
	for r := range res.DetectionsBy {
		holders = append(holders, r)
	}
	sort.Slice(holders, func(i, j int) bool { return holders[i] < holders[j] })
	for _, r := range holders {
		t.AddRow(fmt.Sprintf("suspicion held by %s", g.Name(r)), res.DetectionsBy[r])
	}
	t.AddRow("RTT NewYork-Sunnyvale before attack", res.PreAttackRTT)
	t.AddRow("RTT NewYork-Sunnyvale after reroute", res.PostRerouteRTT)
	t.AddRow("KC transit packets in final eighth", res.KCTransitTail)
	t.Notes = append(t.Notes,
		"paper shape: detection within one 5 s validation round of the attack; reroute after OSPF delay+hold (≈15 s); RTT 50 ms → 56 ms",
		fmt.Sprintf("measured: detection %+.1fs after attack; reroute %+.1fs after detection",
			(res.FirstDetectionAt-res.AttackAt).Seconds(), (res.RerouteAt-res.FirstDetectionAt).Seconds()))
	return res, t
}

// RTTSeries renders the Fig 5.7 RTT scatter (time, rtt ms) for plotting.
func RTTSeries(res *fatih.ScenarioResult) *Table {
	t := &Table{
		Title:  "Fig 5.7 series — RTT(New York ↔ Sunnyvale)",
		Header: []string{"t(s)", "rtt(ms)"},
	}
	for _, s := range res.RTT {
		t.AddRow(fmt.Sprintf("%.1f", s.At.Seconds()), fmt.Sprintf("%.1f", float64(s.RTT.Microseconds())/1000))
	}
	return t
}
