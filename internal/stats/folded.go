package stats

// Folded accumulates one metric across the trials of a parallel fan-out
// (internal/runner). runner.Map returns its results ordered by trial index
// whatever the worker count or scheduling, so folding is a loop over that
// slice calling Add — and every derived statistic (mean, variance, median,
// max) is bitwise what a serial run of the same trials computes. That
// determinism is the contract the parallel experiment runner is tested
// against. The zero value is an empty fold.
type Folded struct {
	values []float64
	est    Estimator
}

// Add appends the next trial's value. Call it in trial order.
func (f *Folded) Add(v float64) {
	f.values = append(f.values, v)
	f.est.Add(v)
}

// N returns the number of observations.
func (f *Folded) N() int { return f.est.N() }

// Mean returns the mean across trials.
func (f *Folded) Mean() float64 { return f.est.Mean() }

// StdDev returns the sample standard deviation across trials.
func (f *Folded) StdDev() float64 { return f.est.StdDev() }

// Median returns the median across trials.
func (f *Folded) Median() float64 { return Quantile(f.values, 0.5) }

// Max returns the maximum across trials (0 for an empty fold).
func (f *Folded) Max() float64 {
	max := 0.0
	for i, v := range f.values {
		if i == 0 || v > max {
			max = v
		}
	}
	return max
}
