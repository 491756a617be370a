package telemetry

import (
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("requests_total"); again != c {
		t.Error("same name should resolve to the same counter")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
}

func TestName(t *testing.T) {
	cases := []struct {
		base   string
		labels []string
		want   string
	}{
		{"m", nil, "m"},
		{"m", []string{"router", "3"}, `m{router="3"}`},
		// Label keys come out sorted regardless of argument order.
		{"m", []string{"z", "1", "a", "2"}, `m{a="2",z="1"}`},
	}
	for _, c := range cases {
		if got := Name(c.base, c.labels...); got != c.want {
			t.Errorf("Name(%q, %v) = %q, want %q", c.base, c.labels, got, c.want)
		}
	}
}

func TestNamePanicsOnOddLabels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Name with odd label count should panic")
		}
	}()
	Name("m", "key-without-value")
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []int64{10, 100})
	for _, v := range []int64{3, 10, 11, 250} {
		h.Observe(v)
	}
	if got, want := h.Count(), int64(4); got != want {
		t.Errorf("count = %d, want %d", got, want)
	}
	if got, want := h.Sum(), int64(274); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	counts := h.BucketCounts()
	want := []int64{2, 1, 1} // ≤10, ≤100, +Inf
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, counts[i], want[i])
		}
	}
}

func TestMergeFold(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("c").Add(2)
	b.Counter("c").Add(3)
	b.Counter("only_b").Inc()
	a.Gauge("g").Set(5)
	a.Histogram("h", []int64{10}).Observe(4)
	b.Histogram("h", []int64{10}).Observe(40)

	dst := NewRegistry()
	dst.Merge(a)
	dst.Merge(b)
	if got := dst.Counter("c").Value(); got != 5 {
		t.Errorf("folded counter = %d, want 5", got)
	}
	if got := dst.Counter("only_b").Value(); got != 1 {
		t.Errorf("folded only_b = %d, want 1", got)
	}
	if got := dst.Gauge("g").Value(); got != 5 {
		t.Errorf("folded gauge = %d, want 5", got)
	}
	h := dst.Histogram("h", []int64{10})
	if h.Count() != 2 || h.Sum() != 44 {
		t.Errorf("folded histogram count=%d sum=%d, want 2/44", h.Count(), h.Sum())
	}

	// Self- and nil-merges are no-ops, not deadlocks or panics.
	dst.Merge(dst)
	dst.Merge(nil)
	(*Registry)(nil).Merge(dst)
	if got := dst.Counter("c").Value(); got != 5 {
		t.Errorf("after no-op merges counter = %d, want 5", got)
	}
}

func TestMergePanicsOnBoundMismatch(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Histogram("h", []int64{10})
	b.Histogram("h", []int64{20})
	defer func() {
		if recover() == nil {
			t.Error("merging histograms with different bounds should panic")
		}
	}()
	a.Merge(b)
}

func TestNilRegistryHandsOutNilInstruments(t *testing.T) {
	var r *Registry
	if c := r.Counter("c"); c != nil {
		t.Error("nil registry should hand out a nil counter")
	}
	if g := r.Gauge("g"); g != nil {
		t.Error("nil registry should hand out a nil gauge")
	}
	if h := r.Histogram("h", []int64{1}); h != nil {
		t.Error("nil registry should hand out a nil histogram")
	}
}

// TestDisabledPathAllocs is the disabled-path contract of DESIGN.md: with
// telemetry off every hook must be a nil-check costing zero allocations.
// This is the tier-1 allocation guard required by the observability PR.
func TestDisabledPathAllocs(t *testing.T) {
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		tr *Tracer
		s  *Set
	)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		_ = c.Value()
		g.Set(9)
		g.Add(-1)
		h.Observe(42)
		tr.Instant("ev", "cat", time.Second, 1, "")
		tr.Span("sp", "cat", time.Second, 2*time.Second, 1, "")
		tr.SetThreadName(1, "x")
		_ = s.Registry()
		_ = s.Tracer()
		_ = s.PacketTracer()
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry hot path allocates %v allocs/op, want 0", allocs)
	}
}

func BenchmarkDisabledCounter(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkEnabledCounter(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkEnabledHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h", []int64{1, 10, 100, 1000})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i % 2000))
	}
}

func BenchmarkDisabledTracerInstant(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Instant("ev", "cat", time.Duration(i), 1, "")
	}
}

func BenchmarkEnabledTracerInstant(b *testing.B) {
	tr := NewTracer(1 << 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Instant("ev", "cat", time.Duration(i), 1, "")
	}
}
