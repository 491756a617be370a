package network

import (
	"fmt"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/queue"
)

// EventKind classifies a local packet event at a router.
type EventKind int

// Event kinds.
const (
	// EvInject: a host behind this router originated the packet.
	EvInject EventKind = iota + 1
	// EvReceive: the packet finished arriving over the link from Peer.
	EvReceive
	// EvEnqueue: the packet entered the output queue toward Peer.
	EvEnqueue
	// EvDequeue: the packet exited the output queue toward Peer
	// (transmission started). This is the "exits Q" timestamp of §6.2.1.
	EvDequeue
	// EvDrop: the packet was dropped, with Reason. Malicious drops emit no
	// event — the adversary is silent.
	EvDrop
	// EvDeliver: the packet reached its destination router and was handed
	// to the local host.
	EvDeliver
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvInject:
		return "inject"
	case EvReceive:
		return "receive"
	case EvEnqueue:
		return "enqueue"
	case EvDequeue:
		return "dequeue"
	case EvDrop:
		return "drop"
	case EvDeliver:
		return "deliver"
	default:
		return "unknown"
	}
}

// Event is a local packet event observed at a single router. Taps receive
// events only for their own router: a detector deployed at router r sees
// exactly what r's line cards would show it, nothing more.
type Event struct {
	Time   time.Duration
	Router packet.NodeID
	Kind   EventKind
	// Packet is live only for the tap call: a pooled packet is reused after
	// its last event (Network.NewPacket), so a tap that needs it later keeps
	// a Clone, never the pointer.
	Packet *packet.Packet
	// Peer is the other router involved: upstream neighbor for
	// EvReceive/EvDeliver, downstream neighbor for EvEnqueue/EvDequeue and
	// queue drops.
	Peer packet.NodeID
	// Reason is set for EvDrop.
	Reason queue.DropReason
	// QueueBytes is the output-queue occupancy after the event, for
	// EvEnqueue/EvDequeue/EvDrop on an interface.
	QueueBytes int
}

// String renders the event for logs.
func (e Event) String() string {
	return fmt.Sprintf("%8.3fms %v %-8s pkt=%d peer=%v reason=%v q=%d",
		float64(e.Time.Microseconds())/1000, e.Router, e.Kind, e.Packet.ID, e.Peer, e.Reason, e.QueueBytes)
}

// Counters aggregates packet-event counts; a ready-made tap for tests and
// experiments.
type Counters struct {
	Injected  int
	Received  int
	Enqueued  int
	Dequeued  int
	Delivered int
	Drops     map[queue.DropReason]int
	BytesIn   int64
	BytesOut  int64
}

// NewCounters returns zeroed counters.
func NewCounters() *Counters {
	return &Counters{Drops: make(map[queue.DropReason]int)}
}

// Tap returns a tap function feeding the counters.
func (c *Counters) Tap() func(Event) {
	return func(ev Event) {
		switch ev.Kind {
		case EvInject:
			c.Injected++
		case EvReceive:
			c.Received++
			c.BytesIn += int64(ev.Packet.Size)
		case EvEnqueue:
			c.Enqueued++
		case EvDequeue:
			c.Dequeued++
			c.BytesOut += int64(ev.Packet.Size)
		case EvDeliver:
			c.Delivered++
		case EvDrop:
			c.Drops[ev.Reason]++
		}
	}
}

// TotalDrops sums drops across reasons.
func (c *Counters) TotalDrops() int {
	n := 0
	for _, v := range c.Drops {
		n += v
	}
	return n
}
