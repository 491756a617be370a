// Package sim provides a deterministic discrete-event simulation kernel.
//
// All of routerwatch's network experiments run on top of this scheduler:
// virtual time is a time.Duration measured from the start of the run, events
// are callbacks ordered by (time, insertion sequence), and all randomness is
// drawn from explicitly seeded sources so that every run is reproducible.
//
// The kernel recycles Event objects through a per-Scheduler free list (see
// DESIGN.md "Hot path"): steady-state event scheduling allocates
// nothing, and because the pool is owned by the Scheduler — never a
// sync.Pool or any other global — recycling order is a pure function of the
// event sequence, preserving bitwise replay determinism and keeping
// independent kernels race-free on separate goroutines.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"routerwatch/internal/telemetry"
)

// Callback is the allocation-free event form: a function bound once (per
// router, per interface, per flow — never per packet) invoked with the
// arguments it was scheduled with. arg carries a pointer payload (e.g. the
// *packet.Packet in flight) and n an integer payload (e.g. the neighbor ID);
// both fit in an Event without boxing, so scheduling one costs no heap
// allocation, unlike a closure capturing the same values.
type Callback func(arg any, n int64)

// Event is a scheduled callback, owned and recycled by its Scheduler. User
// code never holds an *Event: schedule methods return a Handle whose
// generation stamp keeps it safe after the event is recycled.
type Event struct {
	at  time.Duration
	seq uint64

	// Exactly one of fn / cb is set; cb carries its arguments inline.
	fn  func()
	cb  Callback
	arg any
	n   int64

	// id is the event's permanent index into its Scheduler's byID table,
	// assigned once when the event is first carved from a chunk and kept
	// across recycling. The heap stores ids, not pointers (see heapSlot).
	id int32

	canceled bool

	// gen increments every time the event is released to the free list;
	// Handles remember the generation they were issued at, so a stale
	// Handle (to a fired or recycled event) can never cancel a stranger.
	gen uint64
}

// Handle refers to a scheduled event. The zero Handle is valid and inert.
//
// Handles are value types: they may be copied, retained, and used after the
// event fires or is recycled — all operations on a stale Handle are no-ops.
type Handle struct {
	ev  *Event
	gen uint64
}

func (h Handle) live() bool { return h.ev != nil && h.ev.gen == h.gen }

// Cancel prevents the event from firing. Canceling an already-fired,
// already-canceled, or zero Handle is a no-op.
func (h Handle) Cancel() {
	if h.live() {
		h.ev.canceled = true
	}
}

// Canceled reports whether the event will not fire: either Cancel was
// called, or the event already left the scheduler (fired or recycled).
func (h Handle) Canceled() bool { return !h.live() || h.ev.canceled }

// heapSlot pairs an event id with a copy of its ordering key. The key lives
// inline in the heap's backing array, so sift comparisons read contiguous
// memory instead of chasing an *Event per operand — on deep heaps the
// dependent pointer loads were the kernel's single largest CPU line. The
// slot is deliberately pointer-free (an id into Scheduler.byID rather than
// the *Event itself): sifting then moves plain words with no write
// barriers, and the collector never scans the heap's backing array.
type heapSlot struct {
	at  time.Duration
	seq uint64
	id  int32
}

// eventHeap is a 4-ary min-heap ordered by (at, seq). It is specialized
// rather than wrapping container/heap: heap maintenance dominates the
// kernel's CPU profile, and the interface-based Less/Swap dispatch
// roughly doubles its cost. The 4-way branching halves the sift depth of a
// binary heap (fewer swaps, and the four children share a cache line), and
// because (at, seq) is a strict total order (seq is unique), every correct
// min-heap pops the same sequence — replay determinism does not depend on
// the arity or the sift algorithm.
type eventHeap []heapSlot

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
}

func (h *eventHeap) push(ev *Event) {
	*h = append(*h, heapSlot{at: ev.at, seq: ev.seq, id: ev.id})
	a := *h
	j := len(a) - 1
	for j > 0 {
		i := (j - 1) / 4
		if !a.less(j, i) {
			break
		}
		a.swap(i, j)
		j = i
	}
}

// pop removes the minimum slot and returns its event id; the caller maps
// it back through Scheduler.byID.
func (h *eventHeap) pop() int32 {
	a := *h
	n := len(a) - 1
	if n > 0 {
		a.swap(0, n)
		a.down(0, n)
	}
	id := a[n].id
	*h = a[:n]
	return id
}

// down sifts the element at i toward the leaves of the heap prefix h[:n].
func (h eventHeap) down(i, n int) {
	for {
		j := 4*i + 1
		if j >= n {
			break
		}
		end := j + 4
		if end > n {
			end = n
		}
		m := j
		for c := j + 1; c < end; c++ {
			if h.less(c, m) {
				m = c
			}
		}
		if !h.less(m, i) {
			break
		}
		h.swap(i, m)
		i = m
	}
}

// eventChunk is how many Events a pool grows by when the free list is
// empty: one bulk allocation instead of 64 singletons.
const eventChunk = 64

// Scheduler is a discrete-event scheduler. The zero value is ready to use.
//
// A single Scheduler is not safe for concurrent use; each simulation is
// single-threaded by design so that runs are deterministic. Distinct
// Scheduler instances share no state whatsoever — including their event
// pools — so any number of independent kernels may run concurrently on
// separate goroutines: the contract internal/runner's parallel trial
// fan-out relies on.
type Scheduler struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	fired  uint64

	// free is the LIFO free list of recycled events; chunk is the tail of
	// the most recent bulk allocation. Both are per-Scheduler by contract.
	free  []*Event
	chunk []Event

	// byID maps the permanent event id carried in heap slots back to the
	// event. Appended once per chunk carve, read once per pop.
	byID []*Event

	// firedCtr, when attached, counts fired events for per-trial sim-event
	// throughput metrics. Nil (the default) costs one nil-check per event.
	firedCtr *telemetry.Counter

	// pendingMax is the deepest the heap has been; pendingMaxGauge, when
	// attached, mirrors it. Tracking costs one compare per push, and the
	// gauge is touched only when the maximum moves.
	pendingMax      int
	pendingMaxGauge *telemetry.Gauge
}

// New returns a new Scheduler starting at virtual time zero.
func New() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Instrument attaches the scheduler's telemetry (nil detaches either): fired
// is incremented once per fired event, pendingMax holds the deepest the
// event heap has been — the figure a change to how much work is held pending
// reads. Purely observational: the scheduler never reads them back, so
// determinism is unaffected.
func (s *Scheduler) Instrument(fired *telemetry.Counter, pendingMax *telemetry.Gauge) {
	s.firedCtr = fired
	s.pendingMaxGauge = pendingMax
	pendingMax.Set(int64(s.pendingMax))
}

// Pending returns the number of events scheduled but not yet fired.
func (s *Scheduler) Pending() int { return len(s.events) }

// FreeListLen returns the current size of the event free list (tests and
// instrumentation; liveness regressions pin this).
func (s *Scheduler) FreeListLen() int { return len(s.free) }

func (s *Scheduler) alloc() *Event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	if len(s.chunk) == 0 {
		s.chunk = make([]Event, eventChunk)
	}
	ev := &s.chunk[0]
	s.chunk = s.chunk[1:]
	ev.id = int32(len(s.byID))
	s.byID = append(s.byID, ev)
	return ev
}

// release returns a fired or dropped event to the free list. Clearing the
// callback fields is load-bearing: a pooled Event outlives its firing, and
// a retained closure or arg would pin the packet it captured for the life
// of the pool (the liveness regression test guards this).
func (s *Scheduler) release(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.cb = nil
	ev.arg = nil
	s.free = append(s.free, ev)
}

// schedule is the single insertion point for every event: the seq counter
// assigned here, in call order, breaks ties between events at equal times.
func (s *Scheduler) schedule(t time.Duration, fn func(), cb Callback, arg any, n int64) Handle {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	ev := s.alloc()
	ev.at = t
	ev.seq = s.seq
	ev.fn = fn
	ev.cb = cb
	ev.arg = arg
	ev.n = n
	ev.canceled = false
	s.seq++
	s.events.push(ev)
	if n := len(s.events); n > s.pendingMax {
		s.pendingMax = n
		s.pendingMaxGauge.Set(int64(n))
	}
	return Handle{ev: ev, gen: ev.gen}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a logic error in a deterministic simulation.
func (s *Scheduler) At(t time.Duration, fn func()) Handle {
	return s.schedule(t, fn, nil, nil, 0)
}

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d time.Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now+d, fn, nil, nil, 0)
}

// CallAfter schedules cb(arg, n) to run d after the current virtual time.
// Unlike After, it allocates nothing in steady state: bind cb once, pass the
// per-event state through arg and n.
func (s *Scheduler) CallAfter(d time.Duration, cb Callback, arg any, n int64) Handle {
	if d < 0 {
		d = 0
	}
	return s.schedule(s.now+d, nil, cb, arg, n)
}

// fire advances the clock to ev and runs it. The event is recycled before
// the callback runs: the callback may schedule new work that reuses this
// very Event, and any Handle to it is already stale.
func (s *Scheduler) fire(ev *Event) {
	s.now = ev.at
	s.fired++
	s.firedCtr.Inc()
	fn, cb, arg, n := ev.fn, ev.cb, ev.arg, ev.n
	s.release(ev)
	if cb != nil {
		cb(arg, n)
	} else {
		fn()
	}
}

// Step executes the single earliest pending event, advancing virtual time.
// It returns false if no events remain.
func (s *Scheduler) Step() bool {
	for len(s.events) > 0 {
		ev := s.byID[s.events.pop()]
		if ev.canceled {
			s.release(ev)
			continue
		}
		s.fire(ev)
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with firing time <= deadline and then advances the
// clock to deadline. Events scheduled after deadline remain pending.
func (s *Scheduler) RunUntil(deadline time.Duration) {
	for {
		next := s.peek()
		if next == nil || next.at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// peek returns the earliest non-canceled event without firing it, dropping
// (and recycling) canceled events it skips over.
func (s *Scheduler) peek() *Event {
	for len(s.events) > 0 {
		ev := s.byID[s.events[0].id]
		if !ev.canceled {
			return ev
		}
		s.events.pop()
		s.release(ev)
	}
	return nil
}

// NewRNG returns a deterministic random source for the given seed. All
// simulation components must obtain randomness through explicitly seeded
// sources; package-global randomness is forbidden by design. It draws the
// sequence rand.New(rand.NewSource(seed)) draws, but seeds its ~4.9 KB
// source state on the first draw, so a component that never draws (a
// drop-tail router without processing jitter) never pays for it.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(&lazySource{seed: seed})
}

// lazySource is a rand.Source64 that seeds rand.NewSource(seed) on first
// use.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (s *lazySource) source() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

func (s *lazySource) Int63() int64   { return s.source().Int63() }
func (s *lazySource) Uint64() uint64 { return s.source().Uint64() }

// Seed restarts the sequence at seed, reseeding the state in place once it
// exists.
func (s *lazySource) Seed(seed int64) {
	s.seed = seed
	if s.src != nil {
		s.src.Seed(seed)
	}
}

// Ticker repeatedly schedules fn every interval until Stop is called.
type Ticker struct {
	s        *Scheduler
	interval time.Duration
	fn       func()
	cb       Callback
	next     Handle
	stopped  bool
}

// NewTicker starts a ticker whose first firing is at now+interval.
func (s *Scheduler) NewTicker(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{s: s, interval: interval, fn: fn}
	// One callback for the ticker's lifetime: each tick reschedules through
	// the pooled CallAfter path instead of allocating a fresh closure.
	t.cb = func(any, int64) {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.schedule()
		}
	}
	t.schedule()
	return t
}

func (t *Ticker) schedule() {
	t.next = t.s.CallAfter(t.interval, t.cb, nil, 0)
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.next.Cancel()
}
