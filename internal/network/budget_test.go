package network

import (
	"reflect"
	"testing"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/topology"
)

// TestEventBudgetPerHop pins what a hop costs the scheduler (DESIGN.md "Hot
// path"): the downstream receive, plus a forward event only where processing
// jitter is modelled, plus a drain event only for a packet that had to wait
// for the line. Counts are Scheduler.Fired() over a whole run of a 3-router
// line (two hops, equal links), where Inject itself costs no event.
func TestEventBudgetPerHop(t *testing.T) {
	const hops, size = 2, 1000
	tx := topology.DefaultLinkAttrs().Link(0, 1).TransmissionTime(size)
	inject := func(net *Network) { net.Inject(0, &packet.Packet{Dst: 2, Size: size}) }
	cases := []struct {
		name   string
		jitter time.Duration
		drive  func(net *Network)
		fired  uint64
		// dequeues are the instants r0 started serialising each packet.
		dequeues []time.Duration
	}{
		{"idle", 0, inject, hops, []time.Duration{0}},
		{"idle-jitter", 300 * time.Microsecond, inject, 2 * hops, []time.Duration{0}},
		// Five packets at once: four wait at r0 and cost a drain each; at r1
		// each arrives the instant the previous one's serialisation ends and
		// leaves at once, so the second hop adds nothing.
		{"burst", 0, func(net *Network) {
			for k := 0; k < 5; k++ {
				inject(net)
			}
		}, 5*hops + 4, []time.Duration{0, tx, 2 * tx, 3 * tx, 4 * tx}},
		// Boundary: arriving exactly when the line frees is arriving at an
		// idle line; one nanosecond earlier is waiting for it.
		{"at-freeAt", 0, func(net *Network) {
			inject(net)
			net.Run(tx)
			inject(net)
		}, 2 * hops, []time.Duration{0, tx}},
		{"before-freeAt", 0, func(net *Network) {
			inject(net)
			net.Run(tx - 1)
			inject(net)
		}, 2*hops + 1, []time.Duration{0, tx}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := lineNet(hops+1, Options{Seed: 1, ProcessingJitter: tc.jitter})
			var dequeues []time.Duration
			net.Router(0).AddTap(func(ev Event) {
				if ev.Kind == EvDequeue {
					dequeues = append(dequeues, ev.Time)
				}
			})
			delivered := 0
			net.Router(hops).SetLocalHandler(func(*packet.Packet) { delivered++ })
			tc.drive(net)
			net.Run(time.Second)
			if delivered != len(tc.dequeues) {
				t.Fatalf("delivered %d packets, want %d", delivered, len(tc.dequeues))
			}
			if got := net.Scheduler().Fired(); got != tc.fired {
				t.Errorf("fired %d events, want %d", got, tc.fired)
			}
			if !reflect.DeepEqual(dequeues, tc.dequeues) {
				t.Errorf("r0 dequeued at %v, want %v", dequeues, tc.dequeues)
			}
		})
	}
}

// TestDepartureBeforeSameInstantArrival pins the interface's tie rule: a
// packet enqueued at the very instant the line frees finds the waiting
// packet already gone, even when its own event precedes the drain event in
// the heap — here an injection scheduled before the run, the one tie the
// three-event kernel resolved the other way (DESIGN.md "Hot path").
func TestDepartureBeforeSameInstantArrival(t *testing.T) {
	const size = 1000
	net := lineNet(2, Options{Seed: 1})
	tx := topology.DefaultLinkAttrs().Link(0, 1).TransmissionTime(size)
	type step struct {
		kind       EventKind
		id         uint64
		queueBytes int
	}
	var atTie []step
	net.Router(0).AddTap(func(ev Event) {
		if ev.Time == tx {
			atTie = append(atTie, step{ev.Kind, ev.Packet.ID, ev.QueueBytes})
		}
	})
	net.Scheduler().At(tx, func() { net.Inject(0, &packet.Packet{ID: 3, Dst: 1, Size: size}) })
	net.Inject(0, &packet.Packet{ID: 1, Dst: 1, Size: size}) // takes the line until tx
	net.Inject(0, &packet.Packet{ID: 2, Dst: 1, Size: size}) // waits: drain event at tx
	net.Run(time.Second)

	want := []step{{EvInject, 3, 0}, {EvDequeue, 2, 0}, {EvEnqueue, 3, size}}
	if !reflect.DeepEqual(atTie, want) {
		t.Errorf("r0's events at the tie: %v, want %v", atTie, want)
	}
	// The injection, packet 3's own drain at 2·tx and three receives: the
	// drain event the inline departure superseded is cancelled, not fired.
	if got := net.Scheduler().Fired(); got != 5 {
		t.Errorf("fired %d events, want 5", got)
	}
}
