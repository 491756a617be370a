package catalog

import (
	"fmt"

	"routerwatch/internal/baseline"
	"routerwatch/internal/detector/replica"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
)

// ReplicaConfig deploys the §2.3-style replica detector: a deterministic
// shadow of one observed router.
type ReplicaConfig struct {
	Observed packet.NodeID
	Options  replica.Options
}

// queueMonitorConfig deploys a §6.1 congestion-inference baseline on the
// output queue R → RD. Unexported: only the textual options construct it.
type queueMonitorConfig struct {
	R, RD   packet.NodeID
	Options baseline.QueueMonitorOptions
}

func init() {
	protocol.Register(protocol.Descriptor{
		Name:         "replica",
		Precision:    1,
		Summary:      "replica (§2.3): bit-exact shadow of one router, compares output streams",
		ParseOptions: parseReplicaOptions,
		Attach:       attachReplica,
	})
	protocol.Register(protocol.Descriptor{
		Name:         "queue-monitor",
		Summary:      "queue monitor (§6.1): static-threshold or model-based congestion inference",
		ParseOptions: parseQueueMonitorOptions,
		Attach:       attachQueueMonitor,
	})
}

func parseReplicaOptions(p protocol.Params) (any, error) {
	d := protocol.NewParamDecoder(p)
	c := ReplicaConfig{
		Observed: packet.NodeID(d.Int("observed", 0)),
		Options: replica.Options{
			Round:     d.Duration("round", 0),
			Tolerance: d.Int("tolerance", 0),
		},
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

func attachReplica(env protocol.Env, opts any, hooks protocol.Hooks) (any, error) {
	net, err := simNetwork(env, "replica")
	if err != nil {
		return nil, err
	}
	c, ok := opts.(ReplicaConfig)
	if !ok {
		return nil, fmt.Errorf("replica: options are %T, want catalog.ReplicaConfig", opts)
	}
	if err := checkRouter(env, "observed", c.Observed); err != nil {
		return nil, err
	}
	c.Options.Sink = protocol.MergeSink(c.Options.Sink, hooks.Sink)
	return replica.Attach(net, c.Observed, c.Options), nil
}

func parseQueueMonitorOptions(p protocol.Params) (any, error) {
	d := protocol.NewParamDecoder(p)
	c := queueMonitorConfig{
		R:  packet.NodeID(d.Int("r", 0)),
		RD: packet.NodeID(d.Int("rd", 0)),
		Options: baseline.QueueMonitorOptions{
			Round:           d.Duration("round", 0),
			StaticThreshold: d.Int("static-threshold", 0),
			Flows:           d.Int("flows", 0),
			RTT:             d.Duration("rtt", 0),
			MeanPacketSize:  d.Int("mean-packet-size", 0),
			ModelMargin:     d.Float("model-margin", 0),
		},
	}
	switch mode := d.String("mode", "static"); mode {
	case "static":
		c.Options.Mode = baseline.ModeStatic
	case "model":
		c.Options.Mode = baseline.ModeModel
	default:
		return nil, fmt.Errorf("option %q: unknown inference mode %q", "mode", mode)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

func attachQueueMonitor(env protocol.Env, opts any, hooks protocol.Hooks) (any, error) {
	net, err := simNetwork(env, "queue-monitor")
	if err != nil {
		return nil, err
	}
	c, ok := opts.(queueMonitorConfig)
	if !ok {
		return nil, fmt.Errorf("queue-monitor: options are %T, want its parsed textual options", opts)
	}
	if err := checkRouter(env, "r", c.R); err != nil {
		return nil, err
	}
	if err := checkRouter(env, "rd", c.RD); err != nil {
		return nil, err
	}
	if _, ok := env.Graph().Link(c.R, c.RD); !ok {
		return nil, fmt.Errorf("option %q: the topology has no link %v→%v, so no queue to monitor", "rd", c.R, c.RD)
	}
	c.Options.Sink = protocol.MergeSink(c.Options.Sink, hooks.Sink)
	return baseline.AttachQueueMonitor(net, c.R, c.RD, c.Options), nil
}
