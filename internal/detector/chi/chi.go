// Package chi implements Protocol χ (Chapter 6): the compromised-router
// detection protocol that removes congestion ambiguity by *replaying* each
// validated output queue from reported traffic information, dynamically
// inferring exactly which packet losses were congestive. Once congestive
// losses are accounted for, remaining losses are attributed to malice using
// two statistical tests — the single-packet-loss confidence test (Fig 6.2)
// and the combined Z-test (§6.2.1) — plus the RED validation of §6.5.
//
// For each validated queue Q on link ⟨r, rd⟩ (Fig 6.1), every neighbor rs
// of r reports ⟨fingerprint, size, predicted enqueue time⟩ for the traffic
// it sends into Q, and rd records ⟨fingerprint, size, exit time⟩ for the
// traffic leaving Q. rd merges the streams in timestamp order, maintains
// the predicted queue length qpred, and classifies every missing packet:
// congestive if the buffer had no room, malicious otherwise — with
// confidence derived from the learned distribution of the prediction error
// X = qact − qpred (approximately normal, Fig 6.3).
package chi

import (
	"encoding/binary"
	"fmt"
	"time"

	"routerwatch/internal/auth"
	"routerwatch/internal/detector"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/queue"
	"routerwatch/internal/stats"
	"routerwatch/internal/summary"
	"routerwatch/internal/topology"
)

// KindBatch is the control-message kind carrying reporter batches.
const KindBatch = "chi/batch"

// QueueID names a validated queue: the output interface of router R toward
// RD.
type QueueID struct {
	R, RD packet.NodeID
}

// String renders the queue ID.
func (q QueueID) String() string { return fmt.Sprintf("Q(%v->%v)", q.R, q.RD) }

// Options configures Protocol χ.
type Options struct {
	// Round is the validation interval τ. Default 1 s.
	Round time.Duration
	// Timeout µ: the checkpoint runs this long after a round boundary.
	// Default 250 ms. It must be shorter than Round: a validator holds
	// one pending round's batches at a time (see Validate).
	Timeout time.Duration

	// Calibration carries the learned parameters from the learning
	// period (§6.2.1): the qerror distribution and the RED excess test's
	// empirical null.
	Calibration Calibration

	// SingleThreshold is th_single, the target significance of the
	// single-packet loss test. Default 0.999.
	SingleThreshold float64
	// CombinedThreshold is th_combined for the Z-test. Default 0.999.
	CombinedThreshold float64
	// REDThreshold is the target significance for the RED excess-drop
	// test. Default 0.999.
	REDThreshold float64
	// FabricationTolerance ignores this many unexplained departures per
	// round before suspecting fabrication. Default 0.
	FabricationTolerance int

	// RED, when non-nil, validates RED queues (§6.5): the validator
	// replays the RED state machine instead of drop-tail occupancy.
	RED *queue.REDConfig

	// Learning suppresses detection and (with ground-truth taps) collects
	// qerror samples instead.
	Learning bool

	// Queues restricts validation to the given queues; nil validates every
	// directed link's output queue.
	Queues []QueueID

	// Sink receives suspicions.
	Sink detector.Sink
	// Observer, if set, receives a report after every validated round of
	// every queue — the data series behind Figs 6.5–6.16.
	Observer func(RoundReport)
}

const (
	// redWindowRounds is how many recent rounds the RED excess test aggregates
	// over; windowing averages out replay-divergence noise and grows the
	// power against sustained attacks.
	redWindowRounds = 10
	// redShareZ is the z-score threshold of the per-flow drop-share test:
	// a flow whose windowed drop count exceeds its share of the replayed
	// drop probability by this many binomial standard deviations is being
	// selectively dropped. The contrast is immune to global replay bias.
	// TCP's per-flow drop clustering makes the binomial null heavy-tailed
	// (no-attack maxima of 5–7 were measured), so 9 fires only on
	// egregious selectivity (full victim-flow drops).
	redShareZ = 9.0
)

func (o *Options) fill() {
	if o.Round == 0 {
		o.Round = time.Second
	}
	if o.Timeout == 0 {
		o.Timeout = 250 * time.Millisecond
	}
	if o.SingleThreshold == 0 {
		o.SingleThreshold = 0.999
	}
	if o.CombinedThreshold == 0 {
		o.CombinedThreshold = 0.999
	}
	if o.REDThreshold == 0 {
		o.REDThreshold = 0.999
	}
	if o.Sink == nil {
		o.Sink = func(detector.Suspicion) {}
	}
}

// Validate reports whether the options, with defaults filled in, can run:
// the checkpoint of round n must run before round n+1's batches are sent,
// so Timeout must be shorter than Round.
func (o Options) Validate() error {
	o.fill()
	if o.Timeout >= o.Round {
		return fmt.Errorf("chi: timeout %v must be shorter than round %v", o.Timeout, o.Round)
	}
	return nil
}

// Calibration is what the learning period estimates (§6.2.1): the mean and
// standard deviation of the queue prediction error X = qact − qpred, and —
// for RED — the empirical null distribution of the windowed excess-drop
// Z-statistic, which absorbs the correlated noise of replayed drop
// probabilities.
type Calibration struct {
	// Mu and Sigma describe X = qact − qpred in bytes.
	Mu, Sigma float64
	// REDExcessStd is the no-attack standard deviation of the per-round
	// drop excess (observed drops − Σp over replayed arrivals). The excess
	// test differences the windowed mean excess against a trailing
	// baseline, so only this spread of the empirical null is learned; zero
	// means uncalibrated (a conservative default of sd 3 packets is used).
	REDExcessStd float64
}

// redNull returns the usable standard deviation of the RED per-round
// excess null.
func (c Calibration) redNull() float64 {
	if c.REDExcessStd <= 0 {
		return 3
	}
	return max(c.REDExcessStd, 0.5)
}

// RoundReport summarizes one queue's validation round.
type RoundReport struct {
	Queue QueueID
	Round int
	At    time.Duration

	Arrivals   int
	Departures int
	// Congestive counts drops explained by the queue replay.
	Congestive int
	// Dropped counts all unexplained-by-transmission packets (congestive +
	// suspicious).
	Dropped int
	// Suspicious counts drops with room in the predicted buffer.
	Suspicious int
	// MaxSingleConfidence is the largest c_single seen this round.
	MaxSingleConfidence float64
	// CombinedConfidence is c_combined over this round's drops (0 if < 2
	// drops).
	CombinedConfidence float64
	// REDExcessConfidence is the RED Z-test confidence (RED mode only).
	REDExcessConfidence float64
	// REDExpected is this round's Σp over replayed arrivals (RED only).
	REDExpected float64
	// REDObserved is this round's observed drop count (RED only).
	REDObserved int
	// REDMaxShareZ is the largest per-flow drop-share z-score this round's
	// window produced (RED only).
	REDMaxShareZ float64
	// Fabricated counts departures no neighbor reported sending into Q.
	Fabricated int
	// Detected reports whether any test crossed its threshold this round.
	Detected bool
}

// Protocol is a running χ deployment.
type Protocol struct {
	env    protocol.Env
	opts   Options
	oracle *topology.PathTable

	validators map[QueueID]*queueValidator
	tel        detector.Instruments

	// batches and the four lane chunks are the append-only storage
	// carveBatch cuts every sent Batch from.
	batches []Batch
	fps     []packet.Fingerprint
	sizes   []int32
	tss     []time.Duration
	flows   []packet.FlowID
}

// carvedBatches and carvedRecords size the Protocol's chunks of batches and
// of lane records. A lane chunk's tail too short for the next batch is left
// unused; at 4096 records that waste stays below what growing each batch's
// lanes to a size class cost.
const (
	carvedBatches = 64
	carvedRecords = 4096
)

// Attach deploys χ validators and reporters for the selected queues. It
// panics if opts fail Validate.
func Attach(env protocol.Env, opts Options) *Protocol {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	opts.fill()
	g := env.Graph()
	p := &Protocol{
		env:        env,
		opts:       opts,
		oracle:     g.CSR().Paths(),
		validators: make(map[QueueID]*queueValidator),
		tel:        detector.NewInstruments(env.Telemetry(), "chi"),
	}
	queues := opts.Queues
	if queues == nil {
		for _, l := range g.Links() {
			queues = append(queues, QueueID{R: l.From, RD: l.To})
		}
	}
	for _, q := range queues {
		p.validators[q] = newQueueValidator(p, q)
	}
	return p
}

// Validator returns the validator for a queue (tests, experiments).
func (p *Protocol) Validator(q QueueID) *Validator {
	return (*Validator)(p.validators[q])
}

// Validator is the exported read-only view of a queue validator.
type Validator queueValidator

// QErrorSamples returns the learning-period samples of qact − qpred
// (bytes); the distribution plotted in Fig 6.3.
func (v *Validator) QErrorSamples() []float64 {
	return append([]float64(nil), v.samples...)
}

// Calibrate fits the learning-period samples into the parameters a
// detection deployment needs.
func (v *Validator) Calibrate() Calibration {
	var c Calibration
	var qe stats.Estimator
	for _, s := range v.samples {
		qe.Add(s)
	}
	c.Mu, c.Sigma = qe.Mean(), qe.StdDev()
	if len(v.redExcess) > 0 {
		var ze stats.Estimator
		for _, z := range v.redExcess {
			ze.Add(z)
		}
		c.REDExcessStd = ze.StdDev()
	}
	return c
}

// Batch is the signed per-round traffic report a neighbor rs sends to the
// validating router rd (Tinfo(rs, Qin, ⟨rs,r,rd⟩, τ) of §6.2.1). Its
// records are a summary.TimedFP: the reporter fills the lanes straight from
// its event tap, the validator merges them into its replay stream with bulk
// lane appends, and the signed bytes are the summary's own encoding.
//
// A sent batch and its lanes are carved from the Protocol's append-only
// chunks (carveBatch) and never reused or pooled: the validator keeps an
// admitted batch until its checkpoint, and a receiver must not write to it.
type Batch struct {
	Queue    QueueID
	Reporter packet.NodeID
	Round    int
	Pkts     summary.TimedFP
	// Sig is an auth.AggregateTag over the batch's body items (see
	// batchBodies): one constant-size signature for any record count,
	// verified with a single tag comparison when the batch arrives.
	Sig auth.Signature
}

// carveBatch returns a zeroed batch whose four lanes have room for exactly
// due records, all cut from the Protocol's append-only chunks: a flush
// costs no allocation of its own. Carved storage is never handed out twice.
func (p *Protocol) carveBatch(due int) *Batch {
	if len(p.batches) == 0 {
		p.batches = make([]Batch, carvedBatches)
	}
	b := &p.batches[0]
	p.batches = p.batches[1:]
	if len(p.fps) < due {
		n := max(carvedRecords, due)
		p.fps = make([]packet.Fingerprint, n)
		p.sizes = make([]int32, n)
		p.tss = make([]time.Duration, n)
		p.flows = make([]packet.FlowID, n)
	}
	b.Pkts.FPs = carve(&p.fps, due)
	b.Pkts.Sizes = carve(&p.sizes, due)
	b.Pkts.TSs = carve(&p.tss, due)
	b.Pkts.Flows = carve(&p.flows, due)
	return b
}

// carve cuts an empty slice with capacity exactly n off the front of
// *chunk, which must hold at least n elements.
func carve[T any](chunk *[]T, n int) []T {
	s := (*chunk)[:0:n]
	*chunk = (*chunk)[n:]
	return s
}

// batchChunk is the aggregate-signature chunking granularity in records:
// the encoded record stream is split into ≤batchChunk-record items whose
// MACs feed the aggregate tag.
const batchChunk = 64

// batchBodies appends the batch's signed byte string — a 20-byte
// ⟨R, RD, reporter, round⟩ header followed by the lane-encoded records —
// to buf, and returns the refreshed buffer together with the ordered
// aggregate items (the header, then the record chunks) as views into it.
// Both buffers are caller-owned scratch, reused round over round.
func batchBodies(buf []byte, items [][]byte, b *Batch) ([]byte, [][]byte) {
	buf = binary.BigEndian.AppendUint32(buf, uint32(b.Queue.R))
	buf = binary.BigEndian.AppendUint32(buf, uint32(b.Queue.RD))
	buf = binary.BigEndian.AppendUint32(buf, uint32(b.Reporter))
	buf = binary.BigEndian.AppendUint64(buf, uint64(b.Round))
	const header = 20
	buf = b.Pkts.AppendEncode(buf)
	items = append(items[:0], buf[:header])
	const chunk = summary.TimedRecordLen * batchChunk
	for off := header; off < len(buf); off += chunk {
		end := off + chunk
		if end > len(buf) {
			end = len(buf)
		}
		items = append(items, buf[off:end])
	}
	return buf, items
}
