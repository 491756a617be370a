package summary

import "testing"

// TestNewBloomDegenerateParams is bloomShape's parameter-edge table: k must
// come from the target rate, not from the clamped/rounded m, so tiny and
// skewed configurations keep a sane hash count.
func TestNewBloomDegenerateParams(t *testing.T) {
	cases := []struct {
		items  int
		fpRate float64
		wantK  int
	}{
		{1, 0.01, 7},        // m clamps to 64: k from rate, not m/n ≈ 44
		{0, 0.01, 7},        // items clamped to 1
		{-5, 0.01, 7},       // negative items clamped to 1
		{10, 0, 7},          // rate clamped to default 0.01
		{10, 1.5, 7},        // rate ≥ 1 clamped to default 0.01
		{10, -0.3, 7},       // negative rate clamped to default 0.01
		{3, 0.5, 1},         // −log2(0.5) = 1
		{1000, 0.5, 1},      // k floor holds at scale
		{100, 1e-9, 16},     // k ceiling: −log2(1e-9) ≈ 30 clamps to 16
		{100000, 0.01, 7},   // large n: same rate, same k
		{100000, 0.001, 10}, // k = round(−log2(0.001)) = 10
	}
	for _, c := range cases {
		m, k := bloomShape(c.items, c.fpRate)
		if k != c.wantK {
			t.Errorf("bloomShape(%d, %g): k=%d want %d", c.items, c.fpRate, k, c.wantK)
		}
		if m < 64 || m%64 != 0 {
			t.Errorf("bloomShape(%d, %g): m=%d not a positive multiple of 64", c.items, c.fpRate, m)
		}
		// The counting filter built on the shape must be functional at
		// every edge.
		NewCountingBloom(c.items, c.fpRate).Add(42)
	}
}
