package baseline

import (
	"fmt"
	"math"
	"time"

	"routerwatch/internal/detector"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/stats"
	"routerwatch/internal/topology"
)

// QueueMonitor observes one output queue Q = (r → rd) with trusted
// instrumentation (upstream sends vs downstream receives) and applies one
// of the §6.1 congestion-disambiguation heuristics. It is the harness for
// the "Protocol χ vs static threshold" comparison (§6.4.3): the question is
// not Byzantine robustness but *which losses a heuristic can attribute*.
type QueueMonitor struct {
	net    *network.Network
	r      packet.NodeID
	rd     packet.NodeID
	opts   QueueMonitorOptions
	oracle *topology.PathTable

	sent     int
	received int
	round    int

	// Reports holds one entry per completed round.
	Reports []QueueRound
}

// QueueMonitorOptions selects the heuristic.
type QueueMonitorOptions struct {
	// Round is the measurement interval.
	Round time.Duration

	// Mode selects the inference approach of §6.1.
	Mode InferenceMode

	// StaticThreshold is the per-round loss allowance for ModeStatic: more
	// dropped packets than this implies malice.
	StaticThreshold int

	// Flows, RTT, and MeanPacketSize parameterize ModeModel's analytic
	// prediction (Appenzeller Eqs 6.1/6.2).
	Flows          int
	RTT            time.Duration
	MeanPacketSize int
	// ModelMargin multiplies the model's predicted loss count before the
	// comparison (the model is rough; a margin is unavoidable).
	ModelMargin float64

	// Sink receives suspicions.
	Sink detector.Sink
}

// InferenceMode is a §6.1 congestion-inference approach.
type InferenceMode int

// Inference modes.
const (
	// ModeStatic is §6.1.1: a user-defined loss threshold.
	ModeStatic InferenceMode = iota + 1
	// ModeModel is §6.1.2: predict congestive losses from traffic
	// parameters via the Appenzeller buffer-occupancy model.
	ModeModel
)

// QueueRound is one measurement round's outcome.
type QueueRound struct {
	Round     int
	Sent      int
	Received  int
	Lost      int
	Allowed   int
	Detected  bool
	Predicted float64
}

// AttachQueueMonitor deploys the monitor on the queue (r → rd).
func AttachQueueMonitor(net *network.Network, r, rd packet.NodeID, opts QueueMonitorOptions) *QueueMonitor {
	if opts.Round == 0 {
		opts.Round = time.Second
	}
	if opts.Sink == nil {
		opts.Sink = func(detector.Suspicion) {}
	}
	if opts.ModelMargin == 0 {
		opts.ModelMargin = 1
	}
	g := net.Graph()
	// The next-hop oracle answers "does R forward this packet toward RD?"
	// per dequeue event; paths are deterministic in the stable state (§4.1),
	// so they are precomputed once instead of re-running Dijkstra per packet.
	m := &QueueMonitor{net: net, r: r, rd: rd, opts: opts, oracle: g.CSR().Paths()}
	for _, rs := range g.Neighbors(r) {
		if rs == rd {
			continue
		}
		rsID := rs
		net.Router(rsID).AddTap(func(ev network.Event) {
			if ev.Kind == network.EvDequeue && ev.Peer == m.r {
				if m.oracle.After(ev.Packet.Src, ev.Packet.Dst, m.r) == m.rd {
					m.sent++
				}
			}
		})
	}
	net.Router(rd).AddTap(func(ev network.Event) {
		if ev.Kind == network.EvReceive && ev.Peer == m.r {
			m.received++
		}
	})

	net.Scheduler().NewTicker(opts.Round, func() { m.closeRound() })
	return m
}

func (m *QueueMonitor) closeRound() {
	n := m.round
	m.round++
	lost := m.sent - m.received
	if lost < 0 {
		lost = 0
	}
	rep := QueueRound{Round: n, Sent: m.sent, Received: m.received, Lost: lost}

	switch m.opts.Mode {
	case ModeModel:
		link, _ := m.net.Graph().Link(m.r, m.rd)
		sigmaQ := stats.AppenzellerSigmaQ(
			m.opts.RTT.Seconds()/2,
			float64(link.Bandwidth)/8,
			float64(link.QueueLimit),
			m.opts.Flows,
		)
		p := stats.AppenzellerLossProb(float64(link.QueueLimit), sigmaQ)
		rep.Predicted = p * float64(m.sent) * m.opts.ModelMargin
		rep.Allowed = int(math.Ceil(rep.Predicted))
	default:
		rep.Allowed = m.opts.StaticThreshold
	}
	rep.Detected = lost > rep.Allowed
	m.Reports = append(m.Reports, rep)

	if rep.Detected {
		m.opts.Sink(detector.Suspicion{
			By: m.rd, Segment: topology.Segment{m.r, m.rd}, Round: n, At: m.net.Now(),
			Kind: detector.KindTrafficValidation, Confidence: 1,
			Detail: fmt.Sprintf("%d losses exceed allowance %d", lost, rep.Allowed),
		})
	}
	m.sent, m.received = 0, 0
}

// Detections counts rounds flagged as malicious.
func (m *QueueMonitor) Detections() int {
	n := 0
	for _, r := range m.Reports {
		if r.Detected {
			n++
		}
	}
	return n
}

// MaxLost returns the largest per-round loss count observed.
func (m *QueueMonitor) MaxLost() int {
	max := 0
	for _, r := range m.Reports {
		if r.Lost > max {
			max = r.Lost
		}
	}
	return max
}
