package capture

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/telemetry"
)

// TraceOptions configures a TraceEnv.
type TraceOptions struct {
	// Telemetry instruments the replay (nil = disabled).
	Telemetry *telemetry.Set
}

// TraceEnv is a protocol.Env driven by a recorded trace directory: the
// second Env backend after SimEnv.
//
// Virtual time is the recorded timestamps, and the clock starts where the
// recorder attached. The env owns a loopback simulated network rebuilt from
// the trace manifest — same topology, same seed — whose scheduler is the
// clock and whose control plane carries SendControl/Flood exactly as the
// recorded network's did (the authority's signing and fingerprint keys are pure
// functions of the seed, so signatures and fingerprints verify across the
// record/replay boundary). No data traffic ever enters the loopback
// routers: replayed packet events are decoded from the per-router pcap
// cursors, merged in (timestamp, router, file order) order, and delivered
// through the scheduler to Tap subscribers at their recorded instants.
//
// Determinism: the merge order is a total order over trace events, the
// scheduler orders equal-time events by insertion sequence, and all
// randomness flows from Seed via sim.DeriveSeed — a trace plus an
// attachment is a pure function to a suspicion log, bitwise identical
// across runs and across concurrent replays on separate goroutines.
type TraceEnv struct {
	// loopbackEnv is the loopback network's own environment: everything but
	// Tap is the simulator's, not restated here. It is embedded as the
	// interface, not as *protocol.SimEnv, so SimEnv.Network() is not
	// promoted: a trace has no live routers for a simulator-only protocol to
	// read, and catalog.simNetwork must keep refusing one.
	loopbackEnv

	meta *Meta
	dir  string
	net  *network.Network

	taps [][]func(network.Event)

	cur  []traceCursor
	heap []int // cursor indices, min-heap by (time, router)
	pump func()
	err  error

	replayed *telemetry.Counter
}

// loopbackEnv names the embedded field; TraceEnv already has an Env method.
type loopbackEnv = protocol.Env

// traceCursor is one router's read position in its capture file.
type traceCursor struct {
	r    *FileReader
	rec  Record
	ev   network.Event // next undelivered event; valid when live
	live bool
}

// OpenTrace opens a trace directory recorded by Recorder and returns an
// environment positioned at the instant the recorder attached, with every
// trace event still pending. A protocol attached to it counts its rounds
// from that instant, as the recorded one did.
func OpenTrace(dir string, opts TraceOptions) (*TraceEnv, error) {
	meta, err := ReadMeta(dir)
	if err != nil {
		return nil, err
	}
	g, err := meta.Graph()
	if err != nil {
		return nil, err
	}
	net := network.New(g, network.Options{Seed: meta.Seed, Telemetry: opts.Telemetry})
	net.Run(meta.Start.D())
	t := &TraceEnv{
		loopbackEnv: protocol.NewSimEnv(net),
		meta:        meta,
		dir:         dir,
		net:         net,
		taps:        make([][]func(network.Event), len(meta.Nodes)),
		replayed:    opts.Telemetry.Registry().Counter("rw_replay_events_total"),
	}
	t.pump = t.step
	t.cur = make([]traceCursor, len(meta.Files))
	for i, file := range meta.Files {
		r, err := OpenFile(filepath.Join(dir, file))
		if err != nil {
			if cerr := t.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
			return nil, err
		}
		t.cur[i].r = r
		if err := t.advance(i); err != nil {
			if cerr := t.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
			return nil, err
		}
		if t.cur[i].live {
			t.heapPush(i)
		}
	}
	t.scheduleNext()
	return t, nil
}

// advance loads cursor i's next event, or marks it exhausted.
func (t *TraceEnv) advance(i int) error {
	c := &t.cur[i]
	err := c.r.Next(&c.rec)
	if err != nil {
		c.live = false
		if errors.Is(err, io.EOF) {
			return nil
		}
		return fmt.Errorf("capture: %s: %w", t.meta.Files[i], err)
	}
	ev, err := DecodeFrame(c.rec.Data)
	if err != nil {
		c.live = false
		return fmt.Errorf("capture: %s: %w", t.meta.Files[i], err)
	}
	ev.Time = c.rec.Time
	if int(ev.Router) != i {
		c.live = false
		return fmt.Errorf("capture: %s: event for %v in r%d's trace", t.meta.Files[i], ev.Router, i)
	}
	if prev := c.ev.Time; ev.Time < prev {
		c.live = false
		return fmt.Errorf("capture: %s: timestamps regress (%v after %v)", t.meta.Files[i], ev.Time, prev)
	}
	c.ev = ev
	c.live = true
	return nil
}

// step delivers the earliest pending trace event and schedules the next.
// It runs as a scheduler event at exactly the event's recorded time, so
// Now() inside a tap equals ev.Time.
func (t *TraceEnv) step() {
	if len(t.heap) == 0 || t.err != nil {
		return
	}
	i := t.heap[0]
	ev := t.cur[i].ev
	for _, fn := range t.taps[ev.Router] {
		fn(ev)
	}
	t.replayed.Inc()
	if err := t.advance(i); err != nil && t.err == nil {
		t.err = err
	}
	if t.cur[i].live {
		t.heapFix(0)
	} else {
		t.heapPop()
	}
	t.scheduleNext()
}

// scheduleNext arms the pump for the earliest pending cursor. One
// scheduler event per trace event keeps replayed taps and protocol timers
// in one total order.
func (t *TraceEnv) scheduleNext() {
	if len(t.heap) == 0 || t.err != nil {
		return
	}
	next := t.cur[t.heap[0]].ev.Time
	if now := t.net.Now(); next < now {
		t.err = fmt.Errorf("capture: trace event at %v behind clock %v", next, now)
		return
	}
	t.net.Scheduler().At(t.cur[t.heap[0]].ev.Time, t.pump)
}

// Run replays until the given virtual time; until <= 0 runs to the
// recorded horizon.
func (t *TraceEnv) Run(until time.Duration) {
	if until <= 0 {
		until = t.Horizon()
	}
	t.net.Run(until)
}

// Horizon returns the recorded run's final virtual time.
func (t *TraceEnv) Horizon() time.Duration { return t.meta.Duration.D() }

// Env returns the protocol environment (the TraceEnv itself).
func (t *TraceEnv) Env() protocol.Env { return t }

// Err returns the first replay error (decode failure, disordered trace).
func (t *TraceEnv) Err() error { return t.err }

// Close closes the capture files.
func (t *TraceEnv) Close() error {
	var errs []error
	for i := range t.cur {
		if r := t.cur[i].r; r != nil {
			errs = append(errs, r.Close())
			t.cur[i].r = nil
		}
	}
	return errors.Join(errs...)
}

// Tap subscribes to a router's replayed packet events — the one Env method
// a trace changes. The loopback routers carry no data traffic; taps observe
// the trace cursors only.
func (t *TraceEnv) Tap(at packet.NodeID, fn func(network.Event)) {
	t.taps[at] = append(t.taps[at], fn)
}

// --- cursor heap: min by (next event time, router ID) ---

func (t *TraceEnv) heapLess(a, b int) bool {
	ca, cb := &t.cur[t.heap[a]], &t.cur[t.heap[b]]
	if ca.ev.Time != cb.ev.Time {
		return ca.ev.Time < cb.ev.Time
	}
	return t.heap[a] < t.heap[b]
}

func (t *TraceEnv) heapSwap(a, b int) { t.heap[a], t.heap[b] = t.heap[b], t.heap[a] }

func (t *TraceEnv) heapPush(i int) {
	t.heap = append(t.heap, i)
	j := len(t.heap) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if !t.heapLess(j, parent) {
			break
		}
		t.heapSwap(j, parent)
		j = parent
	}
}

func (t *TraceEnv) heapPop() {
	n := len(t.heap) - 1
	t.heapSwap(0, n)
	t.heap = t.heap[:n]
	if n > 0 {
		t.heapFix(0)
	}
}

func (t *TraceEnv) heapFix(i int) {
	n := len(t.heap)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && t.heapLess(j2, j) {
			j = j2
		}
		if !t.heapLess(j, i) {
			break
		}
		t.heapSwap(i, j)
		i = j
	}
}
