package baseline

import (
	"fmt"
	"math"
	"time"

	"routerwatch/internal/detector"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

// Zhang implements the ZHANG per-interface detector (§3.12): the monitor
// models the sender's arrival process at a bottleneck as Poisson with a
// learned mean, predicts the congestive loss rate from an M/M/1/K queue
// approximation, and flags the interface when observed losses significantly
// exceed the prediction. Strong-complete and accurate with precision 2
// under its (wireless, stationary-traffic) assumptions; its weakness
// relative to χ is the stationarity assumption — bursty TCP violates it.
type Zhang struct {
	net  *network.Network
	r    packet.NodeID
	rd   packet.NodeID
	opts ZhangOptions

	sent, received int
	round          int
	learnedRate    float64 // packets per round
	learnedRounds  int

	Reports []ZhangRound
}

// ZhangOptions configures the detector.
type ZhangOptions struct {
	Round time.Duration
	// LearnRounds is how many initial rounds train the Poisson rate.
	LearnRounds int
	// ServiceRate is the interface's packet service rate per round
	// (capacity / mean packet size).
	ServiceRate float64
	// QueuePackets is the buffer size in packets (K in M/M/1/K).
	QueuePackets int
	Sink         detector.Sink
}

// zhangSignificanceZ is the z-score above which losses are malicious.
const zhangSignificanceZ = 3

// ZhangRound records one round's verdict.
type ZhangRound struct {
	Round     int
	Sent      int
	Lost      int
	Predicted float64
	Z         float64
	Detected  bool
}

// AttachZhang deploys the detector on queue (r → rd).
func AttachZhang(net *network.Network, r, rd packet.NodeID, opts ZhangOptions) *Zhang {
	if opts.Round == 0 {
		opts.Round = time.Second
	}
	if opts.LearnRounds == 0 {
		opts.LearnRounds = 10
	}
	if opts.Sink == nil {
		opts.Sink = func(detector.Suspicion) {}
	}
	z := &Zhang{net: net, r: r, rd: rd, opts: opts}

	g := net.Graph()
	for _, rs := range g.Neighbors(r) {
		if rs == rd {
			continue
		}
		net.Router(rs).AddTap(func(ev network.Event) {
			if ev.Kind == network.EvDequeue && ev.Peer == z.r && ev.Packet.Dst != z.r {
				z.sent++
			}
		})
	}
	net.Router(rd).AddTap(func(ev network.Event) {
		if ev.Kind == network.EvReceive && ev.Peer == z.r {
			z.received++
		}
	})
	net.Scheduler().NewTicker(opts.Round, func() { z.closeRound() })
	return z
}

// mm1kLossProb returns the blocking probability of an M/M/1/K queue at
// utilization rho.
func mm1kLossProb(rho float64, k int) float64 {
	if rho <= 0 {
		return 0
	}
	if math.Abs(rho-1) < 1e-9 {
		return 1 / float64(k+1)
	}
	return (1 - rho) * math.Pow(rho, float64(k)) / (1 - math.Pow(rho, float64(k+1)))
}

func (z *Zhang) closeRound() {
	n := z.round
	z.round++
	sent, recv := z.sent, z.received
	z.sent, z.received = 0, 0
	lost := sent - recv
	if lost < 0 {
		lost = 0
	}

	if n < z.opts.LearnRounds {
		z.learnedRate += float64(sent)
		z.learnedRounds++
		return
	}
	rate := z.learnedRate / float64(z.learnedRounds)
	rho := rate / z.opts.ServiceRate
	p := mm1kLossProb(rho, z.opts.QueuePackets)
	predicted := p * float64(sent)
	sd := math.Sqrt(math.Max(predicted*(1-p), 1))
	zscore := (float64(lost) - predicted) / sd
	rep := ZhangRound{Round: n, Sent: sent, Lost: lost, Predicted: predicted, Z: zscore}
	rep.Detected = zscore > zhangSignificanceZ
	z.Reports = append(z.Reports, rep)
	if rep.Detected {
		z.opts.Sink(detector.Suspicion{
			By: z.rd, Segment: topology.Segment{z.r, z.rd}, Round: n, At: z.net.Now(),
			Kind: detector.KindTrafficValidation, Confidence: 1,
			Detail: fmt.Sprintf("losses %d vs Poisson prediction %.1f (z=%.1f)", lost, predicted, zscore),
		})
	}
}

// Detections counts flagged rounds.
func (z *Zhang) Detections() int {
	n := 0
	for _, r := range z.Reports {
		if r.Detected {
			n++
		}
	}
	return n
}
