package sim

import (
	"sort"
	"sync"
	"testing"
	"time"
)

// TestScheduleCancelProperty drives the kernel with randomly interleaved
// Schedule/Cancel sequences and checks the core ordering contract: every
// non-canceled event fires exactly once, in (time, seq) order, and no
// canceled event ever fires. This is the invariant the multi-kernel
// parallel-trial refactor must not disturb.
func TestScheduleCancelProperty(t *testing.T) {
	type firing struct {
		at  time.Duration
		seq uint64
	}
	for trial := 0; trial < 50; trial++ {
		rng := NewRNG(DeriveSeed(0xC0FFEE, uint64(trial)))
		s := New()

		fired := make(map[uint64]int) // seq -> fire count
		var order []firing
		canceled := make(map[uint64]bool)
		var live []Handle
		seqOf := make(map[Handle]uint64)
		var nextSeq uint64

		// schedule registers an event at absolute time `at` whose firing is
		// recorded; fired events may themselves schedule follow-ups (the
		// common pattern in the network layer's tickers and timeouts).
		// Handles stay unique per issuance even though the underlying
		// Events are pooled: the generation stamp distinguishes reuses.
		var schedule func(at time.Duration)
		schedule = func(at time.Duration) {
			// The closure observes its own seq via the map filled right
			// after At returns (At runs strictly before any firing).
			var ev Handle
			ev = s.At(at, func() {
				fired[seqOf[ev]]++
				order = append(order, firing{at: s.Now(), seq: seqOf[ev]})
				if rng.Intn(4) == 0 {
					schedule(s.Now() + time.Duration(rng.Intn(1000))*time.Millisecond)
				}
			})
			seqOf[ev] = nextSeq
			nextSeq++
			fired[seqOf[ev]] = 0
			live = append(live, ev)
		}

		nOps := 200 + rng.Intn(200)
		for i := 0; i < nOps; i++ {
			switch {
			case len(live) > 0 && rng.Intn(3) == 0:
				// Cancel a random live event (possibly one already fired —
				// must be a no-op then).
				idx := rng.Intn(len(live))
				ev := live[idx]
				if fired[seqOf[ev]] == 0 {
					canceled[seqOf[ev]] = true
				}
				ev.Cancel()
			default:
				schedule(time.Duration(rng.Intn(5000)) * time.Millisecond)
			}
		}
		s.Run()

		for seq, n := range fired {
			if canceled[seq] && n != 0 {
				t.Fatalf("trial %d: canceled event %d fired %d times", trial, seq, n)
			}
			if !canceled[seq] && n != 1 {
				t.Fatalf("trial %d: event %d fired %d times, want exactly once", trial, seq, n)
			}
		}
		if !sort.SliceIsSorted(order, func(i, j int) bool {
			if order[i].at != order[j].at {
				return order[i].at < order[j].at
			}
			return order[i].seq < order[j].seq
		}) {
			t.Fatalf("trial %d: events fired out of (time, seq) order", trial)
		}
	}
}

// TestIndependentKernelsConcurrently runs many kernels on separate
// goroutines (exercised by `go test -race`) and checks each produces the
// same firing trace as a serial run with the same seed: independent
// Schedulers must share no state.
func TestIndependentKernelsConcurrently(t *testing.T) {
	run := func(seed int64) []time.Duration {
		rng := NewRNG(seed)
		s := New()
		var trace []time.Duration
		for i := 0; i < 300; i++ {
			s.At(time.Duration(rng.Intn(10000))*time.Microsecond, func() {
				trace = append(trace, s.Now())
			})
		}
		s.Run()
		return trace
	}

	const kernels = 8
	want := make([][]time.Duration, kernels)
	for i := range want {
		want[i] = run(DeriveSeed(42, uint64(i)))
	}

	got := make([][]time.Duration, kernels)
	var wg sync.WaitGroup
	for i := 0; i < kernels; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run(DeriveSeed(42, uint64(i)))
		}(i)
	}
	wg.Wait()

	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("kernel %d: %d firings concurrent vs %d serial", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("kernel %d: firing %d at %v concurrent vs %v serial", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestDeriveSeedStreams checks the stream-derivation contract: stable,
// sensitive to both inputs, and collision-free over a realistic trial fleet.
func TestDeriveSeedStreams(t *testing.T) {
	if DeriveSeed(1, 0) != DeriveSeed(1, 0) {
		t.Fatal("DeriveSeed not deterministic")
	}
	seen := make(map[int64]bool)
	for base := int64(0); base < 4; base++ {
		for trial := uint64(0); trial < 4096; trial++ {
			s := DeriveSeed(base, trial)
			if seen[s] {
				t.Fatalf("seed collision at base=%d trial=%d", base, trial)
			}
			seen[s] = true
		}
	}
	// Sequential trials must not produce correlated generators: compare the
	// first draws of adjacent streams.
	a := NewRNG(DeriveSeed(7, 0)).Int63()
	b := NewRNG(DeriveSeed(7, 1)).Int63()
	if a == b {
		t.Fatal("adjacent trial streams emit identical first values")
	}
}
