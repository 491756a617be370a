package pik2_test

import (
	"testing"
	"time"

	"routerwatch/internal/detector"
	"routerwatch/internal/mutation"
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
			full := runWithExchange(t, mk(), "full")
			reconcile := runWithExchange(t, mk(), "reconcile")
			if full != reconcile {
				t.Errorf("verdicts diverge between exchange modes\nfull:\n%s\nreconcile:\n%s", full, reconcile)
			}
		})
	}
}

// runWithExchange runs the spec with the given exchange mode forced and
// returns the canonical verdict transcript, Detail excluded.
func runWithExchange(t *testing.T, spec *protocol.Spec, exchange string) string {
	t.Helper()
	opts := make(protocol.Params, len(spec.Options)+1)
	for k, v := range spec.Options {
		opts[k] = v
	}
	opts["exchange"] = exchange
	run := *spec
	run.Options = opts
	res, err := protocol.Run(&run, protocol.RunOptions{})
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
