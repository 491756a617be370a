package summary

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestFieldArithmetic(t *testing.T) {
	if addMod(FieldPrime-1, 1) != 0 {
		t.Fatal("addMod wrap")
	}
	if subMod(0, 1) != FieldPrime-1 {
		t.Fatal("subMod wrap")
	}
	if mulMod(FieldPrime-1, FieldPrime-1) != 1 {
		t.Fatal("(-1)·(-1) != 1")
	}
	for _, a := range []uint64{1, 2, 12345, FieldPrime - 2} {
		if mulMod(a, invMod(a)) != 1 {
			t.Fatalf("a·a⁻¹ != 1 for %d", a)
		}
	}
	// Fermat: a^(p-1) = 1.
	if powMod(987654321, FieldPrime-1) != 1 {
		t.Fatal("Fermat little theorem failed")
	}
}

func TestFieldArithmeticProperties(t *testing.T) {
	f := func(a, b, c uint64) bool {
		a %= FieldPrime
		b %= FieldPrime
		c %= FieldPrime
		// Distributivity: a(b+c) = ab + ac.
		if mulMod(a, addMod(b, c)) != addMod(mulMod(a, b), mulMod(a, c)) {
			return false
		}
		// add/sub inverse.
		return subMod(addMod(a, b), b) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPolyDivMod(t *testing.T) {
	// (x² + 3x + 2) ÷ (x + 1) = (x + 2), remainder 0.
	a := poly{2, 3, 1}
	b := poly{1, 1}
	q, r := polyDivMod(a, b)
	if len(r) != 0 {
		t.Fatalf("remainder %v, want 0", r)
	}
	if q.deg() != 1 || q[0] != 2 || q[1] != 1 {
		t.Fatalf("quotient %v, want x+2", q)
	}
	// Round-trip property with random polys.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		a := randPoly(rng, 1+rng.Intn(8))
		b := randPoly(rng, 1+rng.Intn(4))
		q, r := polyDivMod(a, b)
		if !polyEqual(polySub(a, polyMul(q, b)), r) {
			t.Fatalf("divmod round trip failed: %v / %v", a, b)
		}
		if r.deg() >= b.normalize().deg() {
			t.Fatalf("remainder degree %d >= divisor degree %d", r.deg(), b.deg())
		}
	}
}

func randPoly(rng *rand.Rand, deg int) poly {
	p := make(poly, deg+1)
	for i := range p {
		p[i] = rng.Uint64() % FieldPrime
	}
	if p[deg] == 0 {
		p[deg] = 1
	}
	return p
}

func polyEqual(a, b poly) bool {
	a, b = a.normalize(), b.normalize()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCharPolyEvaluationAgree(t *testing.T) {
	set := []uint64{3, 17, 99, 12345678901234567}
	points := ReconcilePoints(5)
	evals := EvaluateCharPoly(set, points)
	f := charPoly(set)
	for i, z := range points {
		if got := f.eval(z % FieldPrime); got != evals[i] {
			t.Fatalf("eval mismatch at point %d", i)
		}
	}
}

func TestAllRoots(t *testing.T) {
	roots := []uint64{5, 42, 5, 1000} // with multiplicity
	f := charPoly(roots)
	got, ok := allRoots(f)
	if !ok {
		t.Fatal("allRoots failed")
	}
	sortU64(got)
	want := append([]uint64(nil), roots...)
	sortU64(want)
	if !equalU64(got, want) {
		t.Fatalf("roots %v, want %v", got, want)
	}
}

func TestAllRootsNonSplitting(t *testing.T) {
	// x² + 1 has roots only if −1 is a QR mod p; p = 2^64−59 ≡ 1 (mod 4),
	// so −1 IS a QR here and x²+1 splits. Use an irreducible quadratic
	// instead: x² − a for a non-residue a. Find one by trial.
	var nonResidue uint64
	for a := uint64(2); ; a++ {
		if powMod(a, (FieldPrime-1)/2) == FieldPrime-1 {
			nonResidue = a
			break
		}
	}
	f := poly{subMod(0, nonResidue), 0, 1} // x² − a
	if _, ok := allRoots(f); ok {
		t.Fatal("irreducible quadratic reported as splitting")
	}
}

func sortU64(xs []uint64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func reconcileSets(t *testing.T, a, b []uint64, budget int) (onlyA, onlyB []uint64) {
	t.Helper()
	points := ReconcilePoints(budget)
	evalA := EvaluateCharPoly(a, points)
	evalB := EvaluateCharPoly(b, points)
	onlyA, onlyB, err := Reconcile(evalA, evalB, points, len(a), len(b))
	if err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	sortU64(onlyA)
	sortU64(onlyB)
	return onlyA, onlyB
}

func TestReconcileBasic(t *testing.T) {
	shared := []uint64{100, 200, 300, 400, 500}
	a := append(append([]uint64(nil), shared...), 111, 222)
	b := append(append([]uint64(nil), shared...), 333)
	onlyA, onlyB := reconcileSets(t, a, b, 6)
	if !equalU64(onlyA, []uint64{111, 222}) {
		t.Fatalf("onlyA = %v", onlyA)
	}
	if !equalU64(onlyB, []uint64{333}) {
		t.Fatalf("onlyB = %v", onlyB)
	}
}

func TestReconcileIdenticalSets(t *testing.T) {
	a := []uint64{1, 2, 3}
	onlyA, onlyB := reconcileSets(t, a, a, 4)
	if len(onlyA) != 0 || len(onlyB) != 0 {
		t.Fatalf("identical sets produced differences %v %v", onlyA, onlyB)
	}
}

func TestReconcileOneSided(t *testing.T) {
	// B missing 3 packets A sent: the malicious-drop detection case.
	shared := make([]uint64, 200)
	rng := rand.New(rand.NewSource(3))
	for i := range shared {
		shared[i] = rng.Uint64() % FieldPrime
	}
	a := append(append([]uint64(nil), shared...), 7777, 8888, 9999)
	b := shared
	onlyA, onlyB := reconcileSets(t, a, b, 5)
	if !equalU64(onlyA, []uint64{7777, 8888, 9999}) {
		t.Fatalf("onlyA = %v", onlyA)
	}
	if len(onlyB) != 0 {
		t.Fatalf("onlyB = %v, want empty", onlyB)
	}
}

func TestReconcileLargeSharedSmallDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	shared := make([]uint64, 5000)
	for i := range shared {
		shared[i] = rng.Uint64() % FieldPrime
	}
	a := append(append([]uint64(nil), shared...), 1, 2, 3, 4)
	b := append(append([]uint64(nil), shared...), 5, 6)
	onlyA, onlyB := reconcileSets(t, a, b, 8)
	if !equalU64(onlyA, []uint64{1, 2, 3, 4}) || !equalU64(onlyB, []uint64{5, 6}) {
		t.Fatalf("diff = %v / %v", onlyA, onlyB)
	}
}

func TestReconcileExceedsBudget(t *testing.T) {
	a := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	b := []uint64{9}
	points := ReconcilePoints(4) // budget 3 < |diff| 9
	evalA := EvaluateCharPoly(a, points)
	evalB := EvaluateCharPoly(b, points)
	if _, _, err := Reconcile(evalA, evalB, points, len(a), len(b)); err == nil {
		t.Fatal("oversized difference did not error")
	}
}

// TestReconcileNegativeSize: a size is what a peer signs into its message,
// not something this side counted. math.MinInt64 made sizeA − sizeB
// overflow, left the degree search's start negative, and looped ~2⁶² times.
func TestReconcileNegativeSize(t *testing.T) {
	points := ReconcilePoints(4)
	evalA := EvaluateCharPoly([]uint64{1, 2, 3}, points)
	evalB := EvaluateCharPoly([]uint64{9}, points)
	for _, sizes := range [][2]int{{0, math.MinInt64}, {math.MinInt64, 0}, {3, -1}} {
		if _, _, err := Reconcile(evalA, evalB, points, sizes[0], sizes[1]); !errors.Is(err, ErrReconcile) {
			t.Errorf("sizes %d, %d: err = %v, want ErrReconcile", sizes[0], sizes[1], err)
		}
	}
}

func TestReconcileRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		nShared := rng.Intn(300)
		nA := rng.Intn(4)
		nB := rng.Intn(4)
		seen := make(map[uint64]bool)
		draw := func() uint64 {
			for {
				v := rng.Uint64() % FieldPrime
				if !seen[v] {
					seen[v] = true
					return v
				}
			}
		}
		var shared, da, db []uint64
		for i := 0; i < nShared; i++ {
			shared = append(shared, draw())
		}
		for i := 0; i < nA; i++ {
			da = append(da, draw())
		}
		for i := 0; i < nB; i++ {
			db = append(db, draw())
		}
		a := append(append([]uint64(nil), shared...), da...)
		b := append(append([]uint64(nil), shared...), db...)
		onlyA, onlyB := reconcileSets(t, a, b, nA+nB+2)
		sortU64(da)
		sortU64(db)
		if !equalU64(onlyA, da) || !equalU64(onlyB, db) {
			t.Fatalf("trial %d: got %v/%v want %v/%v", trial, onlyA, onlyB, da, db)
		}
	}
}

func BenchmarkEvaluateCharPoly(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	set := make([]uint64, 1000)
	for i := range set {
		set[i] = rng.Uint64()
	}
	points := ReconcilePoints(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvaluateCharPoly(set, points)
	}
}

func BenchmarkReconcileDiff8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	shared := make([]uint64, 1000)
	for i := range shared {
		shared[i] = rng.Uint64() % FieldPrime
	}
	a := append(append([]uint64(nil), shared...), 11, 22, 33, 44)
	bb := append(append([]uint64(nil), shared...), 55, 66, 77, 88)
	points := ReconcilePoints(10)
	evalA := EvaluateCharPoly(a, points)
	evalB := EvaluateCharPoly(bb, points)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Reconcile(evalA, evalB, points, len(a), len(bb)); err != nil {
			b.Fatal(err)
		}
	}
}
