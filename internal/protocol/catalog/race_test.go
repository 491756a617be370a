//go:build race

package catalog

// The race detector's shadow bookkeeping inflates the heap measurements
// TestAssembleAllocBudget makes. (A build-tagged constant pair would not
// do: the options lint type-checks every _test.go file together,
// whatever its build constraint.)
func init() { raceEnabled = true }
