package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// The two tests below are the -race coverage for Registry.mu and Tracer.mu:
// everything either mutex guards is a map, a ring slice or a plain integer,
// so an unguarded access is a data race the detector reports the first time
// two goroutines meet on it (run them with -race; `make verify` does).

// TestRegistryConcurrent resolves and bumps overlapping instrument names
// from several goroutines while another takes snapshots, then checks the
// totals are exact: every resolution of one name reached one instrument.
func TestRegistryConcurrent(t *testing.T) {
	const workers, rounds, names = 8, 200, 5
	reg := NewRegistry()
	bounds := []int64{1, 10}

	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				reg.Snapshot()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := fmt.Sprint(i % names)
				reg.Counter("c", "id", id).Inc()
				reg.Gauge("g", "id", id).Add(2)
				reg.Histogram("h", bounds, "id", id).Observe(5)
			}
		}()
	}
	wg.Wait()
	close(stop)
	snaps.Wait()

	s := reg.Snapshot()
	if len(s.Counters) != names || len(s.Gauges) != names || len(s.Histograms) != names {
		t.Fatalf("series = %d counters, %d gauges, %d histograms, want %d each",
			len(s.Counters), len(s.Gauges), len(s.Histograms), names)
	}
	const per = workers * rounds / names
	for i := 0; i < names; i++ {
		if c, g, h := s.Counters[i], s.Gauges[i], s.Histograms[i]; c.Value != per || g.Value != 2*per || h.Count != per || h.Sum != 5*per {
			t.Errorf("%s = %d, %s = %d, %s count %d sum %d; want %d, %d, %d, %d",
				c.Name, c.Value, g.Name, g.Value, h.Name, h.Count, h.Sum, per, 2*per, per, 5*per)
		}
	}
}

// TestTracerConcurrent records, names threads and reads from several
// goroutines at once on a ring small enough to wrap many times over.
func TestTracerConcurrent(t *testing.T) {
	const workers, rounds, capacity = 8, 200, 16
	tr := NewTracer(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tr.Instant("tick", "test", time.Duration(i), tid, "")
				tr.SetThreadName(tid, fmt.Sprint("w", tid))
				if n := len(tr.Events()); n > capacity {
					t.Errorf("Events returned %d events from a %d-slot ring", n, capacity)
				}
				tr.Dropped()
			}
		}(int32(w))
	}
	wg.Wait()

	if got, want := tr.Dropped(), uint64(workers*rounds-capacity); got != want {
		t.Errorf("Dropped = %d, want %d", got, want)
	}
	if n := len(tr.Events()); n != capacity {
		t.Errorf("ring holds %d events, want %d", n, capacity)
	}
	if n := len(tr.ThreadNames()); n != workers {
		t.Errorf("%d thread names, want %d", n, workers)
	}
}
