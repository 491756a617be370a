package catalog

import (
	"fmt"
	"time"

	"routerwatch/internal/detector/pik2"
	"routerwatch/internal/detector/tvinfo"
	"routerwatch/internal/protocol"
)

func init() {
	protocol.Register(protocol.Descriptor{
		Name:         "pik2",
		Precision:    3,
		Summary:      "Πk+2 (§5.2): per path-segment end validation, precision k+2, the Fatih protocol",
		ParseOptions: parsePik2Options,
		Attach:       attachPik2,
		DefaultSpec:  pik2DefaultSpec,
	})
}

func parsePik2Options(p protocol.Params) (any, error) {
	d := protocol.NewParamDecoder(p)
	o := pik2.Options{
		K:       d.Int("k", 0),
		Round:   d.Duration("round", 0),
		Timeout: d.Duration("timeout", 0),
		Thresholds: tvinfo.Thresholds{
			Loss:        d.Int("loss-threshold", 0),
			Fabrication: d.Int("fabrication-threshold", 0),
		},
		Sampling: d.Fraction("sampling", 0),
	}
	switch mode := d.String("exchange", "full"); mode {
	case "full":
		o.Exchange = pik2.ExchangeFull
	case "reconcile":
		o.Exchange = pik2.ExchangeReconcile
	default:
		return nil, fmt.Errorf("option %q: unknown exchange mode %q", "exchange", mode)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return o, nil
}

func attachPik2(env protocol.Env, opts any, hooks protocol.Hooks) (any, error) {
	var o pik2.Options
	if opts != nil {
		var ok bool
		if o, ok = opts.(pik2.Options); !ok {
			return nil, fmt.Errorf("pik2: options are %T, want pik2.Options", opts)
		}
	}
	o.Sink = protocol.MergeSink(o.Sink, hooks.Sink)
	return pik2.Attach(env, o), nil
}

// pik2DefaultSpec is the canonical path-segment scenario: a 5-router line,
// the middle router compromised, bidirectional traffic.
func pik2DefaultSpec(seed int64, clean bool) *protocol.Spec {
	return lineSpec("pik2", protocol.Params{
		"k": "1", "round": "1s", "timeout": "250ms",
		"loss-threshold": "2", "fabrication-threshold": "2",
	}, seed, clean)
}

// lineSpec is the shared 5-router-line detection scenario of the
// path-segment protocols: 30 s of bidirectional traffic with the middle
// router dropping 30% of everything from t=5 s (unless clean).
func lineSpec(name string, opts protocol.Params, seed int64, clean bool) *protocol.Spec {
	spec := &protocol.Spec{
		Name:     name + "-line5",
		Protocol: name,
		Options:  opts,
		Seed:     seed,
		Duration: protocol.Duration(30 * time.Second),
		Jitter:   protocol.Duration(100 * time.Microsecond),
		Topology: protocol.TopologySpec{Kind: "line", N: 5},
		Traffic: []protocol.TrafficSpec{{
			Kind: "pair", Src: 0, Dst: 4, Count: 15000,
			Interval: protocol.Duration(2 * time.Millisecond),
			Offset:   protocol.Duration(time.Microsecond),
			Size:     500, Flow: 1, ReverseFlow: 2,
		}},
	}
	if !clean {
		spec.Attack = &protocol.AttackSpec{
			Kind: "drop", Node: 2, Rate: 0.3,
			Start: protocol.Duration(5 * time.Second),
		}
	}
	return spec
}
