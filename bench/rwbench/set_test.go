package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"routerwatch/bench/result"
)

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, since the acceptance runs are judged
// by that function.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 9}, 1, 1},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdictOf(t *testing.T) {
	lower := result.Metric{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := result.Metric{Name: "packets_per_s", Better: "higher", Bound: 0.10}
	exact := result.Metric{Name: "suspicion_precision", Better: "lower", Bound: 0}
	for _, c := range []struct {
		name   string
		m      result.Metric
		a, b   []float64
		spread float64
		want   string
	}{
		{"within the bound", lower, []float64{1, 1.02}, []float64{1.05, 1.07}, 0.02, "ok"},
		{"past the bound", lower, []float64{1, 1.02}, []float64{1.2, 1.22}, 0.02, "worse"},
		{"faster is never worse", lower, []float64{1, 1.02}, []float64{0.5, 0.52}, 0.02, "ok"},
		{"throughput fell", higher, []float64{100, 101}, []float64{80, 81}, 0.01, "worse"},
		{"throughput rose", higher, []float64{100, 101}, []float64{130, 131}, 0.01, "ok"},
		{"noisy and overlapping", lower, []float64{1, 1.3}, []float64{1.1, 1.35}, 0.2, "unresolved"},
		{"noisy but every run better", lower, []float64{1, 1.3}, []float64{0.7, 0.9}, 0.2, "ok"},
		{"noisy and every run worse", lower, []float64{1, 1.3}, []float64{1.6, 1.9}, 0.2, "worse"},
		{"exact and equal", exact, []float64{3, 3}, []float64{3, 3}, 0, "ok"},
		{"exact and moved", exact, []float64{3, 3}, []float64{4, 4}, 0, "worse"},
	} {
		if _, got := verdictOf(c.m, c.a, c.b, c.spread); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestManifestIsCommitted keeps BENCHMARK.json and the tables in
// bench/result from drifting apart: the committed file must be exactly
// what `rwbench -manifest` prints.
func TestManifestIsCommitted(t *testing.T) {
	committed, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the bench directory: %v", err)
	}
	printed, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(committed, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(printed, &got); err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `go run ./rwbench -manifest > ../BENCHMARK.json`")
	}
}
