package pik2_test

import (
	"testing"
	"time"

	"routerwatch/internal/attack"
	"routerwatch/internal/detector"
	"routerwatch/internal/detector/pik2"
	"routerwatch/internal/mutation"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	_ "routerwatch/internal/protocol/catalog"
)

// TestExchangeConformance asserts that Appendix A's reconciling exchange
// reaches the same suspicion verdicts as the full fingerprint-list exchange
// on every committed golden scenario: the line5drop shape behind the
// capture golden, plus every Πk+2 scenario in the surviving-mutant corpus.
// The transcripts are compared in canonical rendering excluding Detail (the
// human-readable explanation legitimately names the mode); By, Segment,
// Round, At, Kind and Confidence must all match byte for byte.
func TestExchangeConformance(t *testing.T) {
	specs := map[string]func() *protocol.Spec{
		"line5drop": conformanceLine5Spec,
	}
	survs, err := mutation.LoadSurvivors("../../mutation/testdata/survivors")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range survs {
		if s.Spec.Protocol != "pik2" {
			continue
		}
		s := s
		specs["survivor-"+s.ID] = func() *protocol.Spec { return s.Spec }
	}
	if len(specs) < 2 {
		t.Fatal("no pik2 survivor scenarios found — corpus moved?")
	}

	for name, mk := range specs {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			full := runWithExchange(t, mk(), "full", nil)
			reconcile := runWithExchange(t, mk(), "reconcile", nil)
			if full != reconcile {
				t.Errorf("verdicts diverge between exchange modes\nfull:\n%s\nreconcile:\n%s", full, reconcile)
			}
		})
	}
}

// TestSilenceConformance pins "silence is the empty summary" (DESIGN
// "Segment monitor") where both exchange modes must agree on it: a router that
// forwards all data and eats every transiting summary is suspected exactly
// where an end holds more than the thresholds allow it to have seen alone.
// The transcripts (Detail blanked) are literal: the busy row's is the
// parent's (b3ecda9) restricted to the segment that carried the traffic —
// same rounds, same Kind, same instants.
func TestSilenceConformance(t *testing.T) {
	const busy = `t=1.25s r0 suspects <r0,r1,r2> round=0 kind=exchange-timeout conf=1.0000 
t=1.25s r2 suspects <r0,r1,r2> round=0 kind=exchange-timeout conf=1.0000 
t=1.2521s r1 suspects <r0,r1,r2> round=0 kind=traffic-validation conf=1.0000 
`
	rows := []struct {
		name string
		// n-router line; count packets 0→2 inside round 0; summaries eaten
		// in transit at dropper.
		n, count int
		dropper  packet.NodeID
		want     string
	}{
		// r1 is the middle of the segment the traffic crosses: both ends
		// hold 50 packets, hear nothing, and fail TV against ∅.
		{"busy", 3, 50, 1, busy},
		// r3 is on no segment the traffic crosses, and the middle of ⟨2,3,4⟩
		// and ⟨4,3,2⟩, which carry nothing: no summary is sent for it to
		// eat, and nobody is harmed. (The parent timed both out at r2 and
		// r4: suspicions of segments whose traffic — none — all arrived.)
		{"idle", 5, 50, 3, ""},
		// A record of exactly the threshold is what boundary jitter alone
		// can leave at one end; one packet more is not.
		{"at-threshold", 3, 2, 1, ""},
		{"over-threshold", 3, 3, 1, busy},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			spec := conformanceLine5Spec()
			spec.Name, spec.Attack, spec.Jitter = "silence-"+row.name, nil, 0
			spec.Topology.N = row.n
			spec.Traffic = []protocol.TrafficSpec{{
				Kind: "stream", Src: 0, Dst: 2, Count: row.count,
				Interval: protocol.Duration(time.Millisecond),
				Offset:   protocol.Duration(100 * time.Millisecond),
				Size:     500, Flow: 1,
			}}
			eat := func(res *protocol.Result) {
				res.Net.Router(row.dropper).SetBehavior(
					&attack.ControlDropper{Kinds: map[string]bool{pik2.KindSummary: true}})
			}
			for _, exchange := range []string{"full", "reconcile"} {
				if got := runWithExchange(t, spec, exchange, eat); got != row.want {
					t.Errorf("exchange=%s:\n%swant:\n%s", exchange, got, row.want)
				}
			}
		})
	}
}

// runWithExchange runs the spec with the given exchange mode forced, and
// before (if any) applied to the assembled scenario, and returns the
// canonical verdict transcript, Detail excluded.
func runWithExchange(t *testing.T, spec *protocol.Spec, exchange string, before func(*protocol.Result)) string {
	t.Helper()
	opts := make(protocol.Params, len(spec.Options)+1)
	for k, v := range spec.Options {
		opts[k] = v
	}
	opts["exchange"] = exchange
	run := *spec
	run.Options = opts
	res, err := protocol.Run(&run, protocol.RunOptions{BeforeRun: before})
	if err != nil {
		t.Fatalf("run (exchange=%q): %v", exchange, err)
	}
	return renderVerdicts(res.Log)
}

// renderVerdicts is the log's verdict transcript with every Detail blanked
// (the explanation legitimately names the exchange mode).
func renderVerdicts(log *detector.Log) string {
	blank := detector.NewLog()
	for _, s := range log.All() {
		s.Detail = ""
		blank.Add(s)
	}
	return blank.String()
}

// conformanceLine5Spec mirrors the capture golden's line5drop scenario: a
// 5-router line with the middle router dropping 30% from t=1s.
func conformanceLine5Spec() *protocol.Spec {
	return &protocol.Spec{
		Name:     "line5drop-conformance",
		Protocol: "pik2",
		Options: protocol.Params{
			"k": "1", "round": "1s", "timeout": "250ms",
			"loss-threshold": "2", "fabrication-threshold": "2",
		},
		Seed:     1,
		Duration: protocol.Duration(4 * time.Second),
		Jitter:   protocol.Duration(100 * time.Microsecond),
		Topology: protocol.TopologySpec{Kind: "line", N: 5},
		Attack: &protocol.AttackSpec{
			Kind: "drop", Node: 2, Rate: 0.3,
			Start: protocol.Duration(time.Second),
		},
		Traffic: []protocol.TrafficSpec{{
			Kind: "pair", Src: 0, Dst: 4, Count: 400,
			Interval: protocol.Duration(10 * time.Millisecond),
			Offset:   protocol.Duration(time.Microsecond),
			Size:     500, Flow: 1, ReverseFlow: 2,
		}},
	}
}
