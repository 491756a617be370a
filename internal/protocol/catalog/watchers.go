package catalog

import (
	"fmt"

	"routerwatch/internal/baseline"
	"routerwatch/internal/protocol"
)

func init() {
	protocol.Register(protocol.Descriptor{
		Name:         "watchers",
		Precision:    2,
		Summary:      "WATCHERS (§3.1): conservation-of-flow counters with a static congestion allowance",
		ParseOptions: parseWatchersOptions,
		Attach:       attachWatchers,
		DefaultSpec:  watchersDefaultSpec,
	})
}

func parseWatchersOptions(p protocol.Params) (any, error) {
	d := protocol.NewParamDecoder(p)
	o := baseline.WatchersOptions{
		Round:     d.Duration("round", 0),
		Threshold: int64(d.Int("threshold", 0)),
		Fixed:     d.Bool("fixed", false),
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return o, nil
}

func attachWatchers(env protocol.Env, opts any, hooks protocol.Hooks) (any, error) {
	net, err := simNetwork(env, "watchers")
	if err != nil {
		return nil, err
	}
	var o baseline.WatchersOptions
	if opts != nil {
		var ok bool
		if o, ok = opts.(baseline.WatchersOptions); !ok {
			return nil, fmt.Errorf("watchers: options are %T, want baseline.WatchersOptions", opts)
		}
	}
	o.Sink = protocol.MergeSink(o.Sink, hooks.Sink)
	return baseline.AttachWatchers(net, o), nil
}

func watchersDefaultSpec(seed int64, clean bool) *protocol.Spec {
	return lineSpec("watchers", protocol.Params{
		"round": "1s", "threshold": "5000", "fixed": "true",
	}, seed, clean)
}
