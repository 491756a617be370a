// Command topoinfo reports the per-router monitoring state of the
// path-segment protocols on a topology — the data behind Figs 5.2 and 5.4 —
// plus the structural shape of the graph (tier sizes, degree histogram,
// diameter, cross-region links) for the generated internet-scale
// topologies.
//
//	go run ./cmd/topoinfo -topology sprintlink -maxk 8
//	go run ./cmd/topoinfo -topology ebone -mode nodes
//	go run ./cmd/topoinfo -topology abilene
//	go run ./cmd/topoinfo -topology isp:1000:20 -mode structure
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"routerwatch/internal/baseline"
	"routerwatch/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("topoinfo: ")

	topoName := flag.String("topology", "sprintlink",
		"sprintlink | ebone | abilene | line:<n> | isp:<nodes>[:<pops>]")
	mode := flag.String("mode", "both", "nodes (Π2) | ends (Πk+2) | both | structure (shape only)")
	maxK := flag.Int("maxk", 8, "largest AdjacentFault(k)")
	topoSeed := flag.Int64("topo-seed", 1, "generator seed for isp topologies")
	flag.Parse()

	g, err := buildTopology(*topoName, *topoSeed)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("topology %s: %d routers, %d duplex links\n",
		*topoName, g.NumNodes(), g.NumDuplexLinks())
	printStructure(g)

	if *mode == "structure" {
		os.Exit(0)
	}

	paths := g.CSR().Paths()
	fmt.Printf("%d routing paths\n\n", paths.Len())

	printMode := func(m topology.MonitorMode, name string) {
		fmt.Printf("%s:\n  k   max|Pr|   avg|Pr|   median|Pr|\n", name)
		for k := 1; k <= *maxK; k++ {
			s := topology.ComputePrStats(g, paths, k, m)
			fmt.Printf("  %-3d %-9d %-9.1f %.1f\n", s.K, s.Max, s.Mean, s.Median)
		}
		fmt.Println()
	}
	if *mode == "nodes" || *mode == "both" {
		printMode(topology.ModeNodes, "Protocol Π2 (per path-segment nodes, Fig 5.2)")
	}
	if *mode == "ends" || *mode == "both" {
		printMode(topology.ModeEnds, "Protocol Πk+2 (per path-segment ends, Fig 5.4)")
	}

	total, max := 0, 0
	for _, r := range g.Nodes() {
		s := baseline.CounterStateSize(g, r)
		total += s
		if s > max {
			max = s
		}
	}
	fmt.Printf("WATCHERS comparison (§5.1.1): %d counters/router mean, %d max\n",
		total/g.NumNodes(), max)
	os.Exit(0)
}

// buildTopology resolves the -topology argument.
func buildTopology(name string, seed int64) (*topology.Graph, error) {
	switch name {
	case "sprintlink":
		return topology.Generate(topology.SprintlinkSpec()), nil
	case "ebone":
		return topology.Generate(topology.EBONESpec()), nil
	case "abilene":
		return topology.Abilene(), nil
	}
	var n, pops int
	if _, err := fmt.Sscanf(name, "isp:%d:%d", &n, &pops); err == nil {
		return topology.ISP(topology.ISPSpec{Nodes: n, PoPs: pops, Seed: seed}), nil
	}
	if _, err := fmt.Sscanf(name, "isp:%d", &n); err == nil && n > 0 {
		return topology.ISP(topology.ISPSpec{Nodes: n, Seed: seed}), nil
	}
	if _, err := fmt.Sscanf(name, "line:%d", &n); err == nil && n >= 2 {
		return topology.Line(n), nil
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}

// printStructure reports the graph's shape: hierarchy tiers (when the
// ISP-generator naming convention identifies them), degree distribution,
// diameter, and — for region-tagged topologies — the cross-region link
// count.
func printStructure(g *topology.Graph) {
	core, agg, edge := 0, 0, 0
	for _, id := range g.Nodes() {
		var p, i int
		name := g.Name(id)
		if _, err := fmt.Sscanf(name, "p%dc%d", &p, &i); err == nil {
			core++
			continue
		}
		if _, err := fmt.Sscanf(name, "p%da%d", &p, &i); err == nil {
			agg++
			continue
		}
		if _, err := fmt.Sscanf(name, "p%de%d", &p, &i); err == nil {
			edge++
		}
	}
	if g.NumNodes() > 0 && core+agg+edge == g.NumNodes() {
		fmt.Printf("tiers: %d core, %d aggregation, %d edge\n", core, agg, edge)
	}

	hist := topology.DegreeHistogram(g)
	fmt.Printf("degree histogram:")
	for d, c := range hist {
		if c > 0 {
			fmt.Printf(" %d:%d", d, c)
		}
	}
	fmt.Println(" (degree:count)")

	fmt.Printf("diameter: %d hops\n", topology.Diameter(g))
	if g.Regions() != nil {
		fmt.Printf("regions: %d, cross-region duplex links: %d\n",
			g.NumRegions(), topology.CrossRegionLinks(g))
	}
}
