package experiments

import (
	"fmt"
	"time"

	"routerwatch/internal/detector/pik2"
	"routerwatch/internal/detector/tvinfo"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/summary"
	"routerwatch/internal/topology"
)

// SummarySizeTable reproduces the §2.4.1 comparison of traffic-summary
// representations: for a round carrying n packets, the bytes needed to
// communicate each conservation policy's summary — counters, explicit
// fingerprint multisets, Bloom filters, characteristic-polynomial
// evaluations (set reconciliation), and ordered fingerprint lists.
func SummarySizeTable(packetsPerRound []int, reconcileBudget int) *Table {
	t := &Table{
		Title: "§2.4.1 — per-round summary sizes (bytes) by representation",
		Header: []string{"packets/round", "counter", "fingerprint set",
			"bloom (1% fp)", "reconciliation", "ordered list"},
	}
	h := packet.NewHasher(3, 5)
	for _, n := range packetsPerRound {
		fps := summary.NewFPSet()
		ordered := summary.NewOrderedFP()
		for i := 0; i < n; i++ {
			p := packet.Packet{ID: uint64(i + 1), Src: 1, Dst: 9, Flow: 3, Seq: uint32(i), Size: 1000}
			fp := h.Fingerprint(&p)
			fps.Add(fp)
			ordered.Add(fp)
		}
		var counter summary.Counter
		counter.Packets = int64(n)
		counter.Bytes = int64(n) * 1000
		reconBytes := 8 + 8*(reconcileBudget+2) // count + evaluations
		t.AddRow(n, len(counter.Encode()), len(fps.Encode()), summary.BloomBytes(n, 0.01),
			reconBytes, len(ordered.Encode()))
	}
	t.Notes = append(t.Notes,
		"counter: conservation of flow (WATCHERS); fingerprint set/ordered list: conservation of content/order (Π2, Πk+2)",
		fmt.Sprintf("reconciliation (Appendix A) is constant in traffic volume — sized for a difference budget of %d", reconcileBudget),
		"bloom trades accuracy for size; the paper prefers reconciliation ('optimal in bandwidth utilization')")
	return t
}

// ExchangeBandwidthTable measures real Πk+2 exchange traffic under both
// transfer modes on a live workload — the protocol-level consequence of the
// summary-size comparison.
func ExchangeBandwidthTable(seed int64) *Table {
	run := func(mode pik2.ExchangeMode) int64 {
		net := network.New(topology.Line(3), network.Options{Seed: seed})
		p := pik2.Attach(protocol.NewSimEnv(net), pik2.Options{
			K: 1, Round: 500 * time.Millisecond, Timeout: 100 * time.Millisecond,
			Thresholds: tvinfo.Thresholds{Loss: 2, Fabrication: 2}, Exchange: mode,
		})
		for i := 0; i < 3000; i++ {
			i := i
			net.Scheduler().At(time.Duration(i)*time.Millisecond+time.Microsecond, func() {
				net.Inject(0, &packet.Packet{Dst: 2, Size: 500, Flow: 1, Seq: uint32(i), Payload: uint64(i)})
			})
		}
		net.Run(4 * time.Second)
		return p.BandwidthBytes()
	}
	full := run(pik2.ExchangeFull)
	recon := run(pik2.ExchangeReconcile)

	t := &Table{
		Title:  "Πk+2 summary-exchange bandwidth, 3000 packets over 8 rounds",
		Header: []string{"exchange mode", "total bytes"},
	}
	t.AddRow("full fingerprint sets", full)
	t.AddRow("set reconciliation (Appendix A)", recon)
	t.Notes = append(t.Notes, fmt.Sprintf("reduction: %.1fx", float64(full)/float64(recon)))
	return t
}
