package chi

import (
	"fmt"
	"math"
	"sort"
	"time"

	"routerwatch/internal/detector"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/queue"
	"routerwatch/internal/stats"
	"routerwatch/internal/summary"
	"routerwatch/internal/topology"
)

// reporter is the per-neighbor Qin observer: it runs at rs and records the
// traffic rs sends into Q = (r → rd), timestamped with the predicted
// enqueue time t + d + ps/bw (§6.2.1). Records accumulate in SoA lanes and
// leave as one aggregate-signed batch per round.
type reporter struct {
	v  *queueValidator
	rs packet.NodeID
	// inLink is rs→r.
	inLink topology.Link
	// route is ⟨rs, r, rd⟩, the path every batch travels: the segment an
	// exchange timeout names is the one that can suppress the batch.
	route topology.Path

	// pending holds unreported records; carry is the partition scratch the
	// next round's records swap through at each flush.
	pending, carry summary.TimedFP
	// bodyBuf / items are the signing scratch behind batchBodies, reused
	// round over round.
	bodyBuf []byte
	items   [][]byte

	// got is the batch the validator admitted from this reporter for the
	// round whose checkpoint is pending; the checkpoint reads and clears it.
	got *Batch
}

// queueValidator runs at rd and validates Q = (r → rd) (Fig 6.1).
type queueValidator struct {
	p    *Protocol
	q    QueueID
	link topology.Link // r→rd

	reporters []*reporter

	// qlimit is the buffer size being validated (the RED limit when RED is
	// configured, else the link's queue limit).
	qlimit int

	// guard bounds a packet's residence in Q: the horizon up to which the
	// merged stream can be safely classified.
	guard time.Duration

	// ins and outs buffer unprocessed records as SoA lanes; the replay
	// merge walks them by index.
	ins  summary.TimedFP
	outs summary.TimedFP

	// bodyBuf / items are onBatch's aggregate-verification scratch.
	bodyBuf []byte
	items   [][]byte

	// outAvail counts future departures per fingerprint (multiset D).
	outAvail map[packet.Fingerprint]int
	// expected counts matched arrivals awaiting their departure event.
	expected map[packet.Fingerprint]int

	// qpred is the predicted queue length in bytes.
	qpred int

	// red replays the RED averaging state when configured; redCfg is its
	// configuration.
	red    *queue.REDState
	redCfg queue.REDConfig

	// Per-checkpoint accumulators.
	losses   []lossRec
	redProbs []float64
	redDrops int
	flowExp  map[packet.FlowID]float64
	flowObs  map[packet.FlowID]int
	report   RoundReport

	// redWindow holds the last redWindowRounds rounds' excess for the
	// windowed test; redTrail holds a longer trail for the drift baseline.
	redWindow []redRound
	redTrail  []float64

	// truthQ maps fingerprints to actual post-enqueue occupancy at r
	// (learning instrumentation only).
	truthQ  map[packet.Fingerprint]int
	samples []float64
	// redExcess collects per-round drop excess during learning (the
	// empirical null of the excess test).
	redExcess []float64

	disabled bool
	round    int
	// open is the round whose checkpoint is pending, or -1 from a
	// checkpoint to the next round boundary; onBatch admits only its
	// batches. checkpointFn is the checkpoint bound once.
	open         int
	checkpointFn func()
}

type lossRec struct {
	ps    int
	qpred int
}

type redRound struct {
	excess   float64
	arrivals int
	flowExp  map[packet.FlowID]float64
	flowObs  map[packet.FlowID]int
}

func newQueueValidator(p *Protocol, q QueueID) *queueValidator {
	g := p.env.Graph()
	link, ok := g.Link(q.R, q.RD)
	if !ok {
		panic(fmt.Sprintf("chi: no link for %v", q))
	}
	v := &queueValidator{
		p:        p,
		q:        q,
		link:     link,
		outAvail: make(map[packet.Fingerprint]int),
		expected: make(map[packet.Fingerprint]int),
		open:     -1,
	}
	v.checkpointFn = v.checkpoint
	v.qlimit = link.QueueLimit
	if p.opts.RED != nil {
		cfg := *p.opts.RED
		if cfg.Limit == 0 {
			cfg.Limit = link.QueueLimit
		}
		cfg.Bandwidth = link.Bandwidth
		v.red = queue.NewREDState(cfg)
		v.redCfg = cfg
		v.qlimit = cfg.Limit
	}
	// Residence bound: full buffer drained at line rate, plus transit and
	// processing slack.
	drain := time.Duration(int64(v.qlimit) * 8 * int64(time.Second) / link.Bandwidth)
	v.guard = drain + 50*time.Millisecond
	if v.guard >= p.opts.Round {
		v.guard = p.opts.Round / 2
	}

	// Reporters at every neighbor of r except rd itself.
	for _, rs := range g.Neighbors(q.R) {
		if rs == q.RD {
			continue
		}
		inLink, _ := g.Link(rs, q.R)
		rep := &reporter{v: v, rs: rs, inLink: inLink, route: topology.Path{rs, q.R, q.RD}}
		v.reporters = append(v.reporters, rep)
		p.env.Tap(rs, rep.onEvent)
	}

	// rd records departures from Q: a packet received over ⟨r, rd⟩ exited
	// Q one transmission + propagation earlier.
	p.env.Tap(q.RD, func(ev network.Event) {
		if ev.Kind != network.EvReceive || ev.Peer != q.R {
			return
		}
		exit := ev.Time - link.Delay - link.TransmissionTime(ev.Packet.Size)
		fp := p.env.Hasher().Fingerprint(ev.Packet)
		v.outs.Append(fp, int32(ev.Packet.Size), exit, ev.Packet.Flow)
		v.outAvail[fp]++
		p.tel.Fingerprints.Inc()
	})
	p.env.HandleControl(q.RD, KindBatch, v.onBatch)

	// Learning instrumentation: ground-truth occupancy at r (§6.2.1's
	// learning period runs in a controlled environment where the real
	// queue is observable).
	if p.opts.Learning {
		v.truthQ = make(map[packet.Fingerprint]int)
		p.env.Tap(q.R, func(ev network.Event) {
			// Dequeue instants are known exactly to the validator (the
			// replayed exit time equals the actual transmission start), so
			// comparing occupancies there measures X = qact − qpred at the
			// same instant ts, as §6.2.1 defines it.
			if ev.Kind == network.EvDequeue && ev.Peer == q.RD {
				v.truthQ[p.env.Hasher().Fingerprint(ev.Packet)] = ev.QueueBytes
			}
		})
	}

	// Round machinery: reporters flush at each boundary; the checkpoint
	// runs µ later at rd, before the next boundary (µ < τ).
	p.env.Every(p.opts.Round, func() {
		n := v.round
		v.round++
		v.open = n
		for _, rep := range v.reporters {
			rep.flush(n)
		}
		p.env.After(p.opts.Timeout, v.checkpointFn)
	})
	return v
}

// onEvent records rs's sends into Q.
func (r *reporter) onEvent(ev network.Event) {
	if ev.Kind != network.EvDequeue || ev.Peer != r.v.q.R {
		return
	}
	// Only traffic r will forward to rd enters Q: predictable from the
	// routing oracle (§4.1).
	if r.v.p.oracle.After(ev.Packet.Src, ev.Packet.Dst, r.v.q.R) != r.v.q.RD {
		return
	}
	enq := ev.Time + r.inLink.TransmissionTime(ev.Packet.Size) + r.inLink.Delay
	fp := r.v.p.env.Hasher().Fingerprint(ev.Packet)
	r.pending.Append(fp, int32(ev.Packet.Size), enq, ev.Packet.Flow)
	r.v.p.tel.Fingerprints.Inc()
}

// flush sends all pending records with predicted enqueue time before the
// end of round n, aggregate-signed, to rd. An empty batch is still sent so
// rd can distinguish silence from idleness.
func (r *reporter) flush(n int) {
	boundary := time.Duration(n+1) * r.v.p.opts.Round
	due := 0
	for _, ts := range r.pending.TSs {
		if ts < boundary {
			due++
		}
	}
	b := r.v.p.carveBatch(due)
	b.Queue, b.Reporter, b.Round = r.v.q, r.rs, n
	r.carry.Reset()
	for i := 0; i < r.pending.Len(); i++ {
		if r.pending.TSs[i] < boundary {
			b.Pkts.AppendRecord(&r.pending, i)
		} else {
			r.carry.AppendRecord(&r.pending, i)
		}
	}
	r.pending, r.carry = r.carry, r.pending

	r.bodyBuf, r.items = batchBodies(r.bodyBuf[:0], r.items, b)
	b.Sig = r.v.p.env.Auth().AggregateTag(r.rs, r.items)
	r.v.p.tel.Summaries.Inc()
	r.v.p.tel.SummaryBytes.Add(int64(len(r.bodyBuf)))
	r.v.p.tel.BatchEntries.Observe(int64(b.Pkts.Len()))
	r.v.p.env.SendControl(network.ControlMessage{
		From: r.rs, To: r.v.q.RD, Kind: KindBatch, Payload: b, Path: r.route,
	})
}

// onBatch admits a batch into its reporter's slot only if it comes from
// one of the validator's own reporters, is for the round whose checkpoint
// is pending, finds the slot empty, and passes its aggregate verification —
// one aggregate check per batch, on arrival. Anything else is dropped
// unread, so a forged, replayed or mistimed batch can neither fill a slot
// nor keep the genuine batch out of it. A disabled validator admits
// nothing.
func (v *queueValidator) onBatch(cm *network.ControlMessage) {
	b, _ := cm.Payload.(*Batch)
	if b == nil || v.disabled || b.Queue != v.q || b.Round != v.open || b.Sig.Signer != b.Reporter {
		return
	}
	for _, rep := range v.reporters {
		if rep.rs == b.Reporter && rep.got == nil {
			v.bodyBuf, v.items = batchBodies(v.bodyBuf[:0], v.items, b)
			if v.p.env.Auth().VerifyAggregate(v.items, b.Sig) {
				rep.got = b
			}
			return
		}
	}
}

// checkpoint validates the pending round: ingest batches, process the
// merged stream up to the safe horizon, run the combined tests, and emit
// the report.
func (v *queueValidator) checkpoint() {
	n := v.open
	v.open = -1
	if v.disabled {
		return
	}
	for _, rep := range v.reporters {
		if rep.got == nil {
			// A reporter's batch did not arrive within µ (or failed its
			// aggregate verification — indistinguishable from suppression
			// for attribution): protocol-faulty behaviour on ⟨rs, r, rd⟩
			// (r can suppress transiting reports). Detection degrades to
			// suspicion; the validator stops rather than misclassify
			// unmatched traffic.
			v.suspect(topology.Segment{rep.rs, v.q.R, v.q.RD},
				detector.KindExchangeTimeout, 1,
				fmt.Sprintf("no Qin report from %v for round %d", rep.rs, n))
			v.disabled = true
			for _, rep := range v.reporters {
				rep.got = nil
			}
			return
		}
	}
	for _, rep := range v.reporters {
		v.ins.AppendBatch(&rep.got.Pkts)
		rep.got = nil
	}

	v.report = RoundReport{Queue: v.q, Round: n, At: v.p.env.Now()}
	horizon := time.Duration(n+1)*v.p.opts.Round - v.guard
	v.processUntil(horizon)
	v.finishRound(n)
}

// processUntil consumes the merged in/out streams in timestamp order up to
// the horizon, advancing qpred and classifying losses — the TV replay of
// §6.2.1. The merge walks the two timestamp lanes directly; record fields
// are only touched by the classification the merge dispatches to.
func (v *queueValidator) processUntil(horizon time.Duration) {
	v.ins.StableSortByTS()
	v.outs.StableSortByTS()

	insTS, outsTS := v.ins.TSs, v.outs.TSs
	i, o := 0, 0
	for {
		inOK := i < len(insTS) && insTS[i] <= horizon
		outOK := o < len(outsTS) && outsTS[o] <= horizon
		switch {
		case inOK && (!outOK || insTS[i] <= outsTS[o]):
			v.processIn(i)
			i++
		case outOK:
			v.processOut(o)
			o++
		default:
			v.ins.TrimFront(i)
			v.outs.TrimFront(o)
			return
		}
	}
}

// redOccupancy debiases the predicted queue length with the learned mean
// error µ before feeding the replayed RED average: qact ≈ qpred + µ, and
// the EWMA is sensitive enough near maxth that the raw prediction would
// spuriously enter the forced-drop region.
func (v *queueValidator) redOccupancy() int {
	occ := v.qpred + int(v.p.opts.Calibration.Mu)
	if occ < 0 {
		occ = 0
	}
	return occ
}

// processIn handles the predicted arrival at Q held in ins record i.
func (v *queueValidator) processIn(i int) {
	fp := v.ins.FPs[i]
	size := int(v.ins.Sizes[i])
	ts := v.ins.TSs[i]
	flow := v.ins.Flows[i]
	v.report.Arrivals++

	var redProb float64
	if v.red != nil {
		redProb = v.red.Arrive(v.redOccupancy(), ts)
		v.redProbs = append(v.redProbs, redProb)
		if v.flowExp == nil {
			v.flowExp = make(map[packet.FlowID]float64)
			v.flowObs = make(map[packet.FlowID]int)
		}
		v.flowExp[flow] += redProb
	}

	if v.outAvail[fp] > 0 {
		// The packet will exit Q: it entered.
		v.outAvail[fp]--
		if v.outAvail[fp] == 0 {
			delete(v.outAvail, fp)
		}
		v.expected[fp]++
		v.qpred += size
		if v.red != nil {
			v.red.RecordOutcome(false, v.redOccupancy(), ts)
		}
		return
	}

	// The packet never exits Q: dropped.
	v.report.Dropped++
	if v.red != nil {
		v.red.RecordOutcome(true, v.redOccupancy(), ts)
		v.redDrops++
		v.flowObs[flow]++
		// The zero-probability test (§6.5.2): RED never drops below minth
		// with buffer room. The replayed average carries the calibrated
		// prediction error, so the test only fires when the average is
		// below minth by a guard band of 2(|µ|+σ) — otherwise a fast ramp
		// could put the live average above minth while the replay lags.
		guard := 2 * (math.Abs(v.p.opts.Calibration.Mu) + v.p.opts.Calibration.Sigma)
		if redProb == 0 && v.qpred+size <= v.qlimit &&
			v.red.Avg()+guard < float64(v.redCfg.MinTh) {
			v.report.Suspicious++
			c := stats.SingleLossConfidence(float64(v.qlimit),
				float64(v.qpred), float64(size), v.p.opts.Calibration.Mu, v.p.opts.Calibration.Sigma)
			if c > v.report.MaxSingleConfidence {
				v.report.MaxSingleConfidence = c
			}
			if !v.p.opts.Learning && c >= v.p.opts.SingleThreshold {
				v.report.Detected = true
				v.suspect(topology.Segment{v.q.R, v.q.RD}, detector.KindREDZeroProb, c,
					fmt.Sprintf("drop with RED prob 0 (avg=%.0f qpred=%d)", v.red.Avg(), v.qpred))
			}
		}
		return
	}

	// Drop-tail classification (§6.2.1): congestive iff no room.
	if v.qpred+size > v.qlimit {
		v.report.Congestive++
		return
	}
	v.report.Suspicious++
	c := stats.SingleLossConfidence(float64(v.qlimit),
		float64(v.qpred), float64(size), v.p.opts.Calibration.Mu, v.p.opts.Calibration.Sigma)
	if c > v.report.MaxSingleConfidence {
		v.report.MaxSingleConfidence = c
	}
	v.losses = append(v.losses, lossRec{ps: size, qpred: v.qpred})
	if !v.p.opts.Learning && c >= v.p.opts.SingleThreshold {
		v.report.Detected = true
		v.suspect(topology.Segment{v.q.R, v.q.RD}, detector.KindSingleLoss, c,
			fmt.Sprintf("single-loss test: qpred=%d ps=%d", v.qpred, size))
	}
}

// processOut handles the observed departure from Q held in outs record o.
func (v *queueValidator) processOut(o int) {
	fp := v.outs.FPs[o]
	size := int(v.outs.Sizes[o])
	ts := v.outs.TSs[o]
	v.report.Departures++
	if v.expected[fp] > 0 {
		v.expected[fp]--
		if v.expected[fp] == 0 {
			delete(v.expected, fp)
		}
		v.qpred -= size
		if v.qpred < 0 {
			v.qpred = 0
		}
		if v.red != nil {
			v.red.NoteDeparture(v.redOccupancy(), ts)
		}
		if v.truthQ != nil {
			if qact, ok := v.truthQ[fp]; ok {
				v.samples = append(v.samples, float64(qact-v.qpred))
				delete(v.truthQ, fp)
			}
		}
		return
	}
	// A departure nobody reported sending into Q: fabrication by r
	// (§2.2.1) — unless it is pre-start traffic, which the tolerance
	// absorbs.
	v.report.Fabricated++
	if !v.p.opts.Learning && v.report.Fabricated > v.p.opts.FabricationTolerance {
		v.report.Detected = true
		v.suspect(topology.Segment{v.q.R, v.q.RD}, detector.KindFabrication, 1,
			fmt.Sprintf("%d unexplained departures", v.report.Fabricated))
	}
}

// finishRound runs the aggregate tests and publishes the round report.
func (v *queueValidator) finishRound(n int) {
	// Combined packet-losses Z-test (§6.2.1) over this round's
	// unresolved drops.
	if len(v.losses) >= 2 {
		var psSum, qpSum float64
		for _, l := range v.losses {
			psSum += float64(l.ps)
			qpSum += float64(l.qpred)
		}
		nn := float64(len(v.losses))
		c := stats.CombinedLossConfidence(float64(v.qlimit),
			qpSum/nn, psSum/nn, v.p.opts.Calibration.Mu, v.p.opts.Calibration.Sigma, len(v.losses))
		v.report.CombinedConfidence = c
		if !v.p.opts.Learning && c >= v.p.opts.CombinedThreshold {
			v.report.Detected = true
			v.suspect(topology.Segment{v.q.R, v.q.RD}, detector.KindCombinedLoss, c,
				fmt.Sprintf("combined test over %d losses", len(v.losses)))
		}
	}
	v.losses = v.losses[:0]

	// RED excess-drop test (§6.5.2): observed drops vs the replayed RED
	// expectation, as windowed mean per-round excess against the
	// empirically learned no-attack null. The analytic Poisson-binomial
	// variance understates reality because the replayed probabilities
	// carry correlated prediction noise; the learning period measures the
	// true null directly.
	if v.red != nil {
		for _, pp := range v.redProbs {
			v.report.REDExpected += pp
		}
		v.report.REDObserved = v.redDrops
		excess := float64(v.redDrops) - v.report.REDExpected
		if v.p.opts.Learning {
			v.redExcess = append(v.redExcess, excess)
		}
		v.redWindow = append(v.redWindow, redRound{
			excess: excess, arrivals: len(v.redProbs),
			flowExp: v.flowExp, flowObs: v.flowObs,
		})
		v.flowExp, v.flowObs = nil, nil
		if len(v.redWindow) > redWindowRounds {
			v.redWindow = v.redWindow[1:]
		}
		var sum float64
		arrivals := 0
		for _, rr := range v.redWindow {
			sum += rr.excess
			arrivals += rr.arrivals
		}
		// Trailing baseline: the mean excess of the rounds *before* the
		// current window. Replay bias drifts slowly with the traffic
		// regime, so the test is differenced against the recent past — an
		// attack onset lifts the window above its own baseline.
		v.redTrail = append(v.redTrail, excess)
		trailLen := 4*redWindowRounds + 10
		if len(v.redTrail) > trailLen {
			v.redTrail = v.redTrail[1:]
		}
		// Warmup: the excess test needs a settled baseline — the first
		// rounds carry the slow-start transient, whose burst losses are
		// not representative of steady state.
		const redWarmupRounds = 15
		if w := len(v.redWindow); w > 0 && arrivals > 0 && len(v.redTrail) >= w+redWarmupRounds {
			baselineRounds := v.redTrail[:len(v.redTrail)-w]
			var base float64
			for _, e := range baselineRounds {
				base += e
			}
			base /= float64(len(baselineRounds))
			nullSD := v.p.opts.Calibration.redNull()
			// Serial correlation discount: treat the window as W/2
			// effective samples.
			eff := float64(w) / 2
			if eff < 1 {
				eff = 1
			}
			t := (sum/float64(w) - base) / (nullSD / math.Sqrt(eff))
			c := stats.StdNormalCDF(t)
			v.report.REDExcessConfidence = c
			if !v.p.opts.Learning && c >= v.p.opts.REDThreshold {
				v.report.Detected = true
				v.suspect(topology.Segment{v.q.R, v.q.RD}, detector.KindREDExcess, c,
					fmt.Sprintf("mean drop excess %.1f/round over %d rounds (baseline %.1f, null sd %.1f)",
						sum/float64(w), w, base, nullSD))
			}
		}
		v.redProbs = nil
		v.redDrops = 0

		// Per-flow drop-share test (flow-selective attacks, the §6.5.3
		// victim model): compare each flow's windowed drop count against
		// its share of the replayed drop probability. A global replay bias
		// scales expected and observed alike, so the binomial contrast
		// stays calibrated where the volume test drifts.
		if len(v.redWindow) >= redWindowRounds {
			eTot, oTot := 0.0, 0
			eFlow := make(map[packet.FlowID]float64)
			oFlow := make(map[packet.FlowID]int)
			for _, rr := range v.redWindow {
				for f, e := range rr.flowExp {
					eFlow[f] += e
					eTot += e
				}
				for f, o := range rr.flowObs {
					oFlow[f] += o
					oTot += o
				}
			}
			if oTot >= 20 && eTot > 0 {
				flows := make([]packet.FlowID, 0, len(eFlow))
				for f := range eFlow {
					flows = append(flows, f)
				}
				sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
				for _, f := range flows {
					ef := eFlow[f]
					if ef < 3 {
						continue
					}
					q := ef / eTot
					if q >= 1 {
						continue
					}
					z := (float64(oFlow[f]) - float64(oTot)*q) /
						math.Sqrt(float64(oTot)*q*(1-q))
					if z > v.report.REDMaxShareZ {
						v.report.REDMaxShareZ = z
					}
					if !v.p.opts.Learning && z >= redShareZ {
						v.report.Detected = true
						v.suspect(topology.Segment{v.q.R, v.q.RD}, detector.KindREDShare,
							stats.StdNormalCDF(z),
							fmt.Sprintf("flow %d: %d of %d drops vs expected share %.2f (z=%.1f)",
								f, oFlow[f], oTot, q, z))
					}
				}
			}
		}
	}

	if v.p.opts.Observer != nil {
		v.p.opts.Observer(v.report)
	}
	v.p.tel.Rounds.Inc()
	v.p.tel.RoundSpan("chi round", n, v.p.opts.Round, v.p.env.Now(), int32(v.q.RD))
}

// suspect raises a suspicion at rd.
func (v *queueValidator) suspect(seg topology.Segment, kind detector.Kind, conf float64, detail string) {
	s := detector.Suspicion{
		By: v.q.RD, Segment: seg, Round: v.round - 1, At: v.p.env.Now(),
		Kind: kind, Confidence: conf, Detail: detail,
	}
	v.p.tel.Deliver(s, v.p.opts.Sink, v.p.opts.Round)
}
