package sim

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"routerwatch/internal/telemetry"
)

func TestSchedulerOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(30*time.Millisecond, func() { order = append(order, 3) })
	s.At(10*time.Millisecond, func() { order = append(order, 1) })
	s.At(20*time.Millisecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if got := s.Now(); got != 30*time.Millisecond {
		t.Fatalf("Now() = %v, want 30ms", got)
	}
}

func TestSchedulerFIFOWithinSameTime(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := New()
	s.At(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(time.Millisecond, func() {})
}

func TestAfterNegativeClamps(t *testing.T) {
	s := New()
	fired := false
	s.After(-time.Second, func() { fired = true })
	s.Run()
	if !fired {
		t.Fatal("negative After never fired")
	}
	if s.Now() != 0 {
		t.Fatalf("negative After advanced clock to %v", s.Now())
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	ev := s.At(time.Millisecond, func() { fired = true })
	ev.Cancel()
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 9 * time.Millisecond} {
		d := d
		s.At(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(5 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("RunUntil fired %d events, want 2", len(fired))
	}
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("Now() = %v after RunUntil(5ms)", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
	s.RunUntil(20 * time.Millisecond)
	if len(fired) != 3 {
		t.Fatalf("second RunUntil fired %d total, want 3", len(fired))
	}
	if s.Now() != 20*time.Millisecond {
		t.Fatalf("clock did not advance to deadline: %v", s.Now())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := New()
	count := 0
	var recur func()
	recur = func() {
		count++
		if count < 5 {
			s.After(time.Millisecond, recur)
		}
	}
	s.After(time.Millisecond, recur)
	s.Run()
	if count != 5 {
		t.Fatalf("recursive scheduling fired %d, want 5", count)
	}
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("Now() = %v, want 5ms", s.Now())
	}
}

// The instruments read what the scheduler did, including what it did before
// they were attached: the deepest heap is a high-water mark, not a level.
func TestInstrument(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	reg := telemetry.NewRegistry()
	fired, deepest := reg.Counter("fired"), reg.Gauge("deepest")
	s.Instrument(fired, deepest)
	s.Run()
	for i := 0; i < 3; i++ {
		s.After(time.Millisecond, func() {})
	}
	s.Run()
	if fired.Value() != 8 || deepest.Value() != 5 {
		t.Fatalf("fired %d deepest %d, want 8 and 5", fired.Value(), deepest.Value())
	}
	s.After(0, func() { s.After(0, func() {}); s.After(0, func() {}) })
	for i := 0; i < 5; i++ {
		s.After(time.Millisecond, func() {})
	}
	s.Run()
	if deepest.Value() != 7 {
		t.Fatalf("deepest %d after 6 pending grew by 2 less the one firing, want 7", deepest.Value())
	}
}

func TestTicker(t *testing.T) {
	s := New()
	count := 0
	var tk *Ticker
	tk = s.NewTicker(10*time.Millisecond, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	s.RunUntil(time.Second)
	if count != 3 {
		t.Fatalf("ticker fired %d times, want 3", count)
	}
}

func TestTickerZeroIntervalPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("zero-interval ticker did not panic")
		}
	}()
	s.NewTicker(0, func() {})
}

func TestNewRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

// Property: no matter how events are scheduled, they fire in nondecreasing
// time order and the clock never goes backward.
func TestEventOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		s := New()
		var times []time.Duration
		for _, off := range offsets {
			d := time.Duration(off) * time.Microsecond
			s.At(d, func() { times = append(times, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// NewRNG seeds its source on the first draw, which must not show: for any
// seed it draws rand.New(rand.NewSource(seed))'s sequences, also after Seed
// (on a drawn and on an undrawn source). An undrawn one costs its headers,
// not the ~4.9 KB source state.
func TestNewRNGMatchesRandSource(t *testing.T) {
	draws := func(r *rand.Rand) []uint64 {
		var out []uint64
		for i := 0; i < 20; i++ {
			out = append(out, uint64(r.Int63()), r.Uint64(), uint64(r.Intn(1000)),
				math.Float64bits(r.Float64()), math.Float64bits(r.NormFloat64()))
		}
		for _, v := range r.Perm(30) {
			out = append(out, uint64(v))
		}
		s := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
		r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		for _, v := range s {
			out = append(out, uint64(v))
		}
		return out
	}
	for _, seed := range []int64{0, 1, -7, math.MaxInt64} {
		got, want := NewRNG(seed), rand.New(rand.NewSource(seed))
		if !slices.Equal(draws(got), draws(want)) {
			t.Fatalf("seed %d: NewRNG draws differ from rand.NewSource", seed)
		}
		got.Seed(seed + 1)
		want.Seed(seed + 1)
		if !slices.Equal(draws(got), draws(want)) {
			t.Fatalf("seed %d: draws differ after Seed on a drawn source", seed)
		}
		got, want = NewRNG(seed), rand.New(rand.NewSource(seed))
		got.Seed(seed - 1)
		want.Seed(seed - 1)
		if !slices.Equal(draws(got), draws(want)) {
			t.Fatalf("seed %d: draws differ after Seed on an undrawn source", seed)
		}
	}

	const calls = 100
	rngs := make([]*rand.Rand, calls)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range rngs {
		rngs[i] = NewRNG(int64(i))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 256 {
		t.Errorf("an undrawn NewRNG allocates %d B, want under 256", per)
	}
	runtime.KeepAlive(rngs)
}
