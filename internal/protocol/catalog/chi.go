package catalog

import (
	"fmt"
	"math/rand"
	"time"

	"routerwatch/internal/attack"
	"routerwatch/internal/detector/chi"
	"routerwatch/internal/protocol"
	"routerwatch/internal/tcpsim"
	"routerwatch/internal/topology"
)

func init() {
	protocol.Register(protocol.Descriptor{
		Name:         "chi",
		Precision:    3,
		Summary:      "χ (Ch. 6): queue replay + statistical loss attribution, no static congestion threshold",
		ParseOptions: parseChiOptions,
		Attach:       attachChi,
		Scenario:     runChiScenario,
		DefaultSpec:  chiDefaultSpec,
	})
}

func parseChiOptions(p protocol.Params) (any, error) {
	d := protocol.NewParamDecoder(p)
	o := chi.Options{
		Round:                d.Duration("round", 0),
		Timeout:              d.Duration("timeout", 0),
		SingleThreshold:      d.Fraction("single-threshold", 0),
		CombinedThreshold:    d.Fraction("combined-threshold", 0),
		FabricationTolerance: d.Int("fabrication-tolerance", 0),
		Learning:             d.Bool("learning", false),
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return o, nil
}

func attachChi(env protocol.Env, opts any, hooks protocol.Hooks) (any, error) {
	var o chi.Options
	if opts != nil {
		var ok bool
		if o, ok = opts.(chi.Options); !ok {
			return nil, fmt.Errorf("chi: options are %T, want chi.Options", opts)
		}
	}
	o.Sink = protocol.MergeSink(o.Sink, hooks.Sink)
	return chi.Attach(env, o), nil
}

// runChiScenario is χ's canonical end-to-end scenario: the spec translated
// onto ChiHarness. The generic runner cannot express it because of the
// two-pass calibration and the TCP sources.
func runChiScenario(spec *protocol.Spec, run protocol.RunOptions) (*protocol.Result, error) {
	if err := spec.Topology.CheckChi(); err != nil {
		return nil, fmt.Errorf("scenario: topology: %w", err)
	}
	st := spec.Topology.BuildChi()
	hooks, log := protocol.LogHooks()
	res := &protocol.Result{Spec: spec, Log: log, Faulty: -1}
	h := ChiHarness{
		Seed: spec.Seed, Topology: st, Jitter: spec.Jitter.D(),
		AttackAt: 10 * time.Second, Duration: spec.Duration.D(),
		Sink:      hooks.Sink,
		Telemetry: run.Telemetry, Progress: run.Progress,
	}
	if h.Duration < 30*time.Second {
		h.Duration = 30 * time.Second
	}

	kind, rate := "none", 0.0
	aseed := spec.Seed
	if a := spec.Attack; a != nil {
		kind, rate = a.Kind, a.Rate
		if a.Start != 0 {
			h.AttackAt = a.Start.D()
		}
		if a.Seed != 0 {
			aseed = a.Seed
		}
	}
	switch kind {
	case "drop":
		h.Attack = func(flows []*tcpsim.Flow) *attack.Dropper {
			return &attack.Dropper{
				Select: attack.And(attack.ByFlow(flows[0].ID()), attack.DataOnly),
				P:      rate, Rng: rand.New(rand.NewSource(aseed)),
			}
		}
	case "masked90":
		h.Attack = func(flows []*tcpsim.Flow) *attack.Dropper {
			return &attack.Dropper{
				Select: attack.And(attack.ByFlow(flows[1].ID()), attack.DataOnly),
				P:      1, MinQueueFrac: 0.9,
			}
		}
	case "syn":
		h.Attack = func([]*tcpsim.Flow) *attack.Dropper {
			return &attack.Dropper{Select: attack.SYNOnly, P: 1}
		}
		h.ExtraTraffic = func(man *tcpsim.Manager, st *topology.SimpleChiTopology, start time.Duration) *tcpsim.Flow {
			return man.StartFlow(tcpsim.FlowConfig{
				Src: st.Sources[len(st.Sources)-1], Dst: st.Sinks[0],
				Start: start, MaxPackets: 10,
			})
		}
	case "", "none":
	default:
		return nil, fmt.Errorf("attack %q not available for chi", kind)
	}
	if h.Attack != nil {
		res.Faulty = st.R
	}
	h.BeforeRun = func(cr *ChiRun) {
		res.Env, res.Net, res.Engine, res.Extra = cr.Env, cr.Net, cr.Protocol, cr.Calibration
		if run.BeforeRun != nil {
			run.BeforeRun(res)
		}
	}
	h.Run()
	return res, nil
}

func chiDefaultSpec(seed int64, clean bool) *protocol.Spec {
	spec := &protocol.Spec{
		Name:     "chi-simple",
		Protocol: "chi",
		Seed:     seed,
		Duration: protocol.Duration(30 * time.Second),
		Topology: protocol.TopologySpec{Kind: "simple-chi", N: 3, M: 2},
	}
	if !clean {
		// Node is informational here: the scenario always compromises the
		// topology's validated router R.
		spec.Attack = &protocol.AttackSpec{Kind: "drop", Rate: 0.2}
	}
	return spec
}
