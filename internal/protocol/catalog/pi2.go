package catalog

import (
	"fmt"

	"routerwatch/internal/detector/pi2"
	"routerwatch/internal/detector/tvinfo"
	"routerwatch/internal/protocol"
)

func init() {
	protocol.Register(protocol.Descriptor{
		Name:         "pi2",
		Precision:    2,
		Summary:      "Π2 (§5.1): per path-segment node validation via signed-value consensus, precision 2",
		ParseOptions: parsePi2Options,
		Attach:       attachPi2,
		DefaultSpec:  pi2DefaultSpec,
	})
}

func parsePi2Options(p protocol.Params) (any, error) {
	d := protocol.NewParamDecoder(p)
	o := pi2.Options{
		K:      d.Int("k", 0),
		Round:  d.Duration("round", 0),
		Settle: d.Duration("settle", 0),
		Thresholds: tvinfo.Thresholds{
			Loss:        d.Int("loss-threshold", 0),
			Fabrication: d.Int("fabrication-threshold", 0),
		},
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return o, nil
}

func attachPi2(env protocol.Env, opts any, hooks protocol.Hooks) (any, error) {
	var o pi2.Options
	if opts != nil {
		var ok bool
		if o, ok = opts.(pi2.Options); !ok {
			return nil, fmt.Errorf("pi2: options are %T, want pi2.Options", opts)
		}
	}
	o.Sink = protocol.MergeSink(o.Sink, hooks.Sink)
	return pi2.Attach(env, o), nil
}

func pi2DefaultSpec(seed int64, clean bool) *protocol.Spec {
	return lineSpec("pi2", protocol.Params{
		"k": "1", "round": "1s", "settle": "250ms",
		"loss-threshold": "2", "fabrication-threshold": "2",
	}, seed, clean)
}
