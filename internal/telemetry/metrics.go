package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil *Counter is a disabled instrument whose methods cost one
// nil-check and nothing else.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be non-negative for Prometheus semantics; not
// enforced on the hot path).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a disabled counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 for a disabled gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram over int64 observations
// (bytes, microseconds, counts). Buckets are defined by ascending upper
// bounds; an implicit +Inf bucket catches the rest. All state is integer,
// so merged histograms are exact.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64
	count  atomic.Int64
}

// Observe records v into its bucket.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~16) and the branch-predicted
	// scan beats binary search at that size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// BucketCounts returns the per-bucket counts, the last entry being the
// +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Registry holds a run's named instruments. Instrument lookup takes a lock
// and is meant for attach time, never for hot paths: resolve once, call
// forever. A nil *Registry hands out nil instruments, so a subsystem can
// resolve its handles without caring whether telemetry is on.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Name renders a metric name with label pairs in Prometheus notation:
// Name("rw_drops_total", "router", "3", "cause", "ttl") →
// rw_drops_total{cause="ttl",router="3"}. Labels are sorted by key so the
// same logical series always maps to the same registry entry.
func Name(base string, labels ...string) string {
	if len(labels) == 0 {
		return base
	}
	if len(labels)%2 != 0 {
		panic("telemetry: odd label list for " + base)
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		kvs = append(kvs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns (creating if needed) the counter with the given name and
// optional label pairs. Nil registry → nil counter.
func (r *Registry) Counter(base string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	name := Name(base, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge. Nil registry → nil.
func (r *Registry) Gauge(base string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	name := Name(base, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram with the
// given ascending bucket upper bounds. Re-registering an existing
// histogram returns it unchanged (the first bounds win); registering with
// no bounds panics. Nil registry → nil.
func (r *Registry) Histogram(base string, bounds []int64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	name := Name(base, labels...)
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		if len(bounds) == 0 {
			panic("telemetry: histogram " + name + " registered without buckets")
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic("telemetry: histogram " + name + " buckets not ascending")
			}
		}
		h = &Histogram{bounds: append([]int64(nil), bounds...)}
		h.counts = make([]atomic.Int64, len(bounds)+1)
		r.histograms[name] = h
	}
	return h
}

// Merge folds src into r: counter and gauge values add, histogram buckets
// add bucket-wise (bounds must match where both registries define the same
// histogram). All state is integer, so folding per-trial registries in any
// order yields the same result as a serial accumulation — the determinism
// contract parallel trial fan-outs rely on. Merging a nil src (or into a
// nil r) is a no-op.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil || r == src {
		return
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	for name, c := range src.counters {
		r.counterByName(name).Add(c.Value())
	}
	for name, g := range src.gauges {
		r.gaugeByName(name).Add(g.Value())
	}
	for name, h := range src.histograms {
		dst := func() *Histogram {
			r.mu.Lock()
			defer r.mu.Unlock()
			d := r.histograms[name]
			if d == nil {
				d = &Histogram{bounds: append([]int64(nil), h.bounds...)}
				d.counts = make([]atomic.Int64, len(h.bounds)+1)
				r.histograms[name] = d
			}
			return d
		}()
		if len(dst.bounds) != len(h.bounds) {
			panic("telemetry: merging histograms with mismatched buckets: " + name)
		}
		for i := range h.bounds {
			if dst.bounds[i] != h.bounds[i] {
				panic("telemetry: merging histograms with mismatched buckets: " + name)
			}
		}
		for i := range h.counts {
			dst.counts[i].Add(h.counts[i].Load())
		}
		dst.sum.Add(h.sum.Load())
		dst.count.Add(h.count.Load())
	}
}

func (r *Registry) counterByName(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

func (r *Registry) gaugeByName(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}
