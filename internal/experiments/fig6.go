package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"routerwatch/internal/attack"
	"routerwatch/internal/detector"
	"routerwatch/internal/detector/chi"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol/catalog"
	"routerwatch/internal/stats"
	"routerwatch/internal/tcpsim"
	"routerwatch/internal/topology"
)

// ChiResult is one χ experiment's output.
type ChiResult struct {
	Calibration chi.Calibration
	Rounds      []chi.RoundReport
	Suspicions  []detector.Suspicion
	// AttackerDropped is the ground-truth count of maliciously dropped
	// packets.
	AttackerDropped int
	// FirstDetectionAt is when the first suspicion was raised.
	FirstDetectionAt time.Duration
	// Victim is the extra-traffic flow, when configured.
	Victim *tcpsim.Flow
}

// Detected reports whether any suspicion was raised.
func (r *ChiResult) Detected() bool { return len(r.Suspicions) > 0 }

// runChi runs one χ experiment through the shared harness, collecting the
// suspicions and the per-round series the figures plot.
func runChi(h catalog.ChiHarness) *ChiResult {
	res := &ChiResult{}
	h.Sink = func(susp detector.Suspicion) { res.Suspicions = append(res.Suspicions, susp) }
	h.Observer = func(rr chi.RoundReport) { res.Rounds = append(res.Rounds, rr) }
	run := h.Run()
	res.Calibration, res.Victim = run.Calibration, run.Victim
	if run.Attacker != nil {
		res.AttackerDropped = run.Attacker.Dropped
	}
	if len(res.Suspicions) > 0 {
		res.FirstDetectionAt = res.Suspicions[0].At
	}
	return res
}

// Table renders the per-round series (the axes of Figs 6.5–6.16).
func (r *ChiResult) Table(title string) *Table {
	t := &Table{
		Title: title,
		Header: []string{"round", "arrivals", "dropped", "congestive", "suspicious",
			"cSingle", "cCombined", "cRED", "detected"},
	}
	for _, rr := range r.Rounds {
		t.AddRow(rr.Round, rr.Arrivals, rr.Dropped, rr.Congestive, rr.Suspicious,
			fmt.Sprintf("%.4f", rr.MaxSingleConfidence),
			fmt.Sprintf("%.4f", rr.CombinedConfidence),
			fmt.Sprintf("%.4f", rr.REDExcessConfidence),
			rr.Detected)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("attacker dropped %d packets; %d suspicions; first detection at %v",
			r.AttackerDropped, len(r.Suspicions), r.FirstDetectionAt))
	return t
}

// --- Chapter 6 figures -----------------------------------------------------

// Fig6_2 evaluates the single-packet-loss confidence curve: c_single as a
// function of the predicted queue length at the drop instant.
func Fig6_2(qlimit, ps, mu, sigma float64) *Table {
	t := &Table{
		Title:  "Fig 6.2 — confidence value for the single packet loss test",
		Header: []string{"qpred(bytes)", "c_single"},
	}
	steps := 20
	for i := 0; i <= steps; i++ {
		qpred := qlimit * float64(i) / float64(steps)
		c := stats.SingleLossConfidence(qlimit, qpred, ps, mu, sigma)
		t.AddRow(int(qpred), fmt.Sprintf("%.6f", c))
	}
	t.Notes = append(t.Notes, "shape: ≈1 for drops with an empty predicted queue, falling to ≈0 as qpred approaches qlimit")
	return t
}

// Fig6_3 runs the learning period and reports the qerror distribution.
func Fig6_3(seed int64) (stats.NormalityReport, *Table) {
	n, v := catalog.ChiHarness{}.Learn(seed, chi.Calibration{})
	st := n.Topology
	n.Manager.StartCBR(st.Sources[0], st.Sinks[1], 5e5, 300, 0, 30*time.Second)
	n.Manager.StartPoisson(st.Sources[1], st.Sinks[0], 100, 700, 0, 30*time.Second)
	n.Net.Run(30 * time.Second)
	rep := stats.CheckNormality(v.QErrorSamples())

	t := &Table{
		Title:  "Fig 6.3 — distribution of qerror = qact − qpred (learning period)",
		Header: []string{"metric", "value"},
	}
	t.AddRow("samples", rep.N)
	t.AddRow("mean(bytes)", rep.Mean)
	t.AddRow("stddev(bytes)", rep.StdDev)
	t.AddRow("skewness", fmt.Sprintf("%.3f", rep.Skewness))
	t.AddRow("excess kurtosis", fmt.Sprintf("%.3f", rep.ExcessKurtosis))
	t.AddRow("KS vs fitted normal", fmt.Sprintf("%.4f", rep.KSStatistic))
	t.Notes = append(t.Notes, "paper: qerror is well approximated by a normal distribution; here it is unimodal and near-symmetric with lattice-induced KS floor")
	return rep, t
}

// Fig6_5 is the drop-tail no-attack run.
func Fig6_5(seed int64) *ChiResult {
	return runChi(catalog.ChiHarness{Seed: seed, Duration: 40 * time.Second})
}

// Fig6_6 is attack 1: drop 20% of the selected flows.
func Fig6_6(seed int64) *ChiResult {
	return runChi(catalog.ChiHarness{
		Seed: seed, AttackAt: 15 * time.Second,
		Attack: func(flows []*tcpsim.Flow) *attack.Dropper {
			return &attack.Dropper{
				Select: attack.And(attack.ByFlow(flows[0].ID()), attack.DataOnly),
				P:      0.2, Rng: rand.New(rand.NewSource(seed)),
			}
		},
	})
}

// Fig6_7 is attack 2: drop the selected flows when the queue is 90% full.
func Fig6_7(seed int64) *ChiResult {
	return runChi(catalog.ChiHarness{
		Seed: seed, AttackAt: 15 * time.Second,
		Attack: func(flows []*tcpsim.Flow) *attack.Dropper {
			return &attack.Dropper{
				Select: attack.And(attack.ByFlow(flows[1].ID()), attack.DataOnly),
				P:      1, MinQueueFrac: 0.90,
			}
		},
	})
}

// Fig6_8 is attack 3: drop the selected flows when the queue is 95% full.
// The masking window is rare, so the run is longer than the other attacks.
func Fig6_8(seed int64) *ChiResult {
	return runChi(catalog.ChiHarness{
		Seed: seed, AttackAt: 15 * time.Second, Duration: 90 * time.Second,
		Attack: func(flows []*tcpsim.Flow) *attack.Dropper {
			return &attack.Dropper{
				Select: attack.And(attack.ByFlow(flows[1].ID()), attack.DataOnly),
				P:      1, MinQueueFrac: 0.95,
			}
		},
	})
}

// Fig6_9 is attack 4: target a host opening a connection by dropping SYNs.
func Fig6_9(seed int64) *ChiResult {
	return runChi(catalog.ChiHarness{
		Seed: seed, Flows: 2, AttackAt: 12 * time.Second, Duration: 30 * time.Second,
		Attack: func([]*tcpsim.Flow) *attack.Dropper {
			return &attack.Dropper{Select: attack.SYNOnly, P: 1}
		},
		ExtraTraffic: func(man *tcpsim.Manager, st *topology.SimpleChiTopology, start time.Duration) *tcpsim.Flow {
			return man.StartFlow(tcpsim.FlowConfig{
				Src: st.Sources[2], Dst: st.Sinks[0], Start: start, MaxPackets: 10,
			})
		},
	})
}

// victimSet selects the first n flows as attack victims.
func victimSet(flows []*tcpsim.Flow, n int) attack.Selector {
	ids := make([]packet.FlowID, 0, n)
	for i := 0; i < n && i < len(flows); i++ {
		ids = append(ids, flows[i].ID())
	}
	return attack.ByFlow(ids...)
}

// Fig6_11 is the RED no-attack run.
func Fig6_11(seed int64) *ChiResult {
	return runChi(catalog.ChiHarness{Seed: seed, Flows: 12, RED: true, Duration: 40 * time.Second})
}

// Fig6_12 is RED attack 1: drop the selected flows when the average queue
// exceeds 45,000 bytes.
func Fig6_12(seed int64) *ChiResult {
	return runChi(catalog.ChiHarness{
		Seed: seed, Flows: 12, RED: true, AttackAt: 30 * time.Second, Duration: 75 * time.Second,
		Attack: func(flows []*tcpsim.Flow) *attack.Dropper {
			return &attack.Dropper{
				Select: attack.And(victimSet(flows, 4), attack.DataOnly),
				P:      1, MinREDAvg: 45_000,
			}
		},
	})
}

// Fig6_13 is RED attack 2: the 54,000-byte masking threshold.
func Fig6_13(seed int64) *ChiResult {
	return runChi(catalog.ChiHarness{
		Seed: seed, Flows: 18, RED: true, AttackAt: 30 * time.Second, Duration: 150 * time.Second,
		Attack: func(flows []*tcpsim.Flow) *attack.Dropper {
			return &attack.Dropper{
				Select: attack.And(victimSet(flows, 6), attack.DataOnly),
				P:      1, MinREDAvg: 54_000,
			}
		},
	})
}

// Fig6_14 is RED attack 3: drop 10% of the selected flows above 45 kB.
func Fig6_14(seed int64) *ChiResult {
	return runChi(catalog.ChiHarness{
		Seed: seed, Flows: 12, RED: true, AttackAt: 30 * time.Second, Duration: 150 * time.Second,
		Attack: func(flows []*tcpsim.Flow) *attack.Dropper {
			return &attack.Dropper{
				Select: attack.And(victimSet(flows, 6), attack.DataOnly),
				P:      0.10, Rng: rand.New(rand.NewSource(seed)), MinREDAvg: 45_000,
			}
		},
	})
}

// Fig6_15 is RED attack 4: drop 5% of the selected flows above 45 kB.
func Fig6_15(seed int64) *ChiResult {
	return runChi(catalog.ChiHarness{
		Seed: seed, Flows: 12, RED: true, AttackAt: 30 * time.Second, Duration: 150 * time.Second,
		Attack: func(flows []*tcpsim.Flow) *attack.Dropper {
			return &attack.Dropper{
				Select: attack.And(victimSet(flows, 6), attack.DataOnly),
				P:      0.05, Rng: rand.New(rand.NewSource(seed)), MinREDAvg: 45_000,
			}
		},
	})
}

// Fig6_16 is RED attack 5: SYN targeting, with light background so the
// victim connects in the below-minth regime.
func Fig6_16(seed int64) *ChiResult {
	return runChi(catalog.ChiHarness{
		Seed: seed, RED: true, AttackAt: 12 * time.Second, Duration: 30 * time.Second,
		Background: func(man *tcpsim.Manager, st *topology.SimpleChiTopology) {
			man.StartCBR(st.Sources[0], st.Sinks[0], 2e6, 1000, 0, 30*time.Second)
		},
		Attack: func([]*tcpsim.Flow) *attack.Dropper {
			return &attack.Dropper{Select: attack.SYNOnly, P: 1}
		},
		ExtraTraffic: func(man *tcpsim.Manager, st *topology.SimpleChiTopology, start time.Duration) *tcpsim.Flow {
			return man.StartFlow(tcpsim.FlowConfig{
				Src: st.Sources[2], Dst: st.Sinks[0], Start: start, MaxPackets: 10,
			})
		},
	})
}
