package stats

import "testing"

func TestFoldedOrderStats(t *testing.T) {
	var f Folded
	for _, v := range []float64{10, 30, 20, 40} {
		f.Add(v)
	}
	if f.N() != 4 || f.Mean() != 25 {
		t.Fatalf("n/mean %d/%v want 4/25", f.N(), f.Mean())
	}
	if f.Median() != 25 {
		t.Fatalf("median %v want 25", f.Median())
	}
	if f.Max() != 40 {
		t.Fatalf("max %v want 40", f.Max())
	}
}
