package summary

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
)

// This file implements the set reconciliation algorithm of Appendix A
// (Minsky, Trachtenberg & Zippel): two routers each hold a set of packet
// fingerprints; by exchanging only evaluations of their sets'
// characteristic polynomials at a handful of field points, they recover the
// symmetric difference exactly — bandwidth proportional to the difference,
// not the sets ("optimal in bandwidth utilization", §2.4.1).
//
// Arithmetic is over GF(p) with p = 2^64 − 59, the largest 64-bit prime, so
// 64-bit fingerprints embed with negligible aliasing (only values ≥ p, of
// which there are 59, wrap).

// FieldPrime is the reconciliation field modulus.
const FieldPrime uint64 = 18446744073709551557 // 2^64 - 59

func addMod(a, b uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	if carry != 0 || s >= FieldPrime {
		s -= FieldPrime
	}
	return s
}

func subMod(a, b uint64) uint64 {
	d, borrow := bits.Sub64(a, b, 0)
	if borrow != 0 {
		d += FieldPrime
	}
	return d
}

func mulMod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// hi < p always (see package tests), so Div64 is safe.
	_, rem := bits.Div64(hi, lo, FieldPrime)
	return rem
}

func powMod(base, exp uint64) uint64 {
	result := uint64(1)
	base %= FieldPrime
	for exp > 0 {
		if exp&1 == 1 {
			result = mulMod(result, base)
		}
		base = mulMod(base, base)
		exp >>= 1
	}
	return result
}

func invMod(a uint64) uint64 {
	if a == 0 {
		panic("summary: inverse of zero")
	}
	return powMod(a, FieldPrime-2)
}

// poly is a polynomial over GF(p), coefficients low→high, normalized so the
// leading coefficient is nonzero (the zero polynomial is the empty slice).
type poly []uint64

func (f poly) deg() int { return len(f) - 1 }

func (f poly) normalize() poly {
	n := len(f)
	for n > 0 && f[n-1] == 0 {
		n--
	}
	return f[:n]
}

func (f poly) clone() poly { return append(poly(nil), f...) }

func (f poly) eval(x uint64) uint64 {
	var acc uint64
	for i := len(f) - 1; i >= 0; i-- {
		acc = addMod(mulMod(acc, x), f[i])
	}
	return acc
}

func polySub(a, b poly) poly {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make(poly, n)
	for i := range out {
		var av, bv uint64
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		out[i] = subMod(av, bv)
	}
	return out.normalize()
}

func polyMul(a, b poly) poly {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make(poly, len(a)+len(b)-1)
	for i, av := range a {
		if av == 0 {
			continue
		}
		for j, bv := range b {
			out[i+j] = addMod(out[i+j], mulMod(av, bv))
		}
	}
	return out.normalize()
}

func polyScale(a poly, c uint64) poly {
	out := make(poly, len(a))
	for i, v := range a {
		out[i] = mulMod(v, c)
	}
	return out.normalize()
}

// polyDivMod returns quotient and remainder of a ÷ b.
func polyDivMod(a, b poly) (q, r poly) {
	b = b.normalize()
	if len(b) == 0 {
		panic("summary: polynomial division by zero")
	}
	r = a.clone().normalize()
	if len(r) < len(b) {
		return nil, r
	}
	q = make(poly, len(r)-len(b)+1)
	invLead := invMod(b[len(b)-1])
	for len(r) >= len(b) {
		shift := len(r) - len(b)
		c := mulMod(r[len(r)-1], invLead)
		q[shift] = c
		for i, bv := range b {
			r[shift+i] = subMod(r[shift+i], mulMod(c, bv))
		}
		r = r.normalize()
		if len(r) == 0 {
			break
		}
	}
	return q.normalize(), r
}

func polyGCD(a, b poly) poly {
	a = a.clone().normalize()
	b = b.clone().normalize()
	for len(b) > 0 {
		_, r := polyDivMod(a, b)
		a, b = b, r
	}
	if len(a) > 0 {
		a = polyScale(a, invMod(a[len(a)-1])) // monic
	}
	return a
}

// polyPowMod computes base^exp mod f.
func polyPowMod(base poly, exp uint64, f poly) poly {
	result := poly{1}
	_, base = polyDivMod(base, f)
	for exp > 0 {
		if exp&1 == 1 {
			_, result = polyDivMod(polyMul(result, base), f)
		}
		_, base = polyDivMod(polyMul(base, base), f)
		exp >>= 1
	}
	return result
}

// charPoly builds the characteristic polynomial Π(x − s) of the multiset.
func charPoly(set []uint64) poly {
	f := poly{1}
	for _, s := range set {
		f = polyMul(f, poly{subMod(0, s%FieldPrime), 1})
	}
	return f
}

// EvaluateCharPolyInto computes χ_S at each point into out, which must
// have len(points) elements, and returns out. Round-boundary callers reuse
// one evaluation buffer through it.
func EvaluateCharPolyInto(out, set, points []uint64) []uint64 {
	if len(out) != len(points) {
		panic("summary: evaluation buffer length mismatch")
	}
	for i := range out {
		out[i] = 1
	}
	for _, s := range set {
		sv := s % FieldPrime
		for i, z := range points {
			out[i] = mulMod(out[i], subMod(z%FieldPrime, sv))
		}
	}
	return out
}

// EvaluateCharPoly computes χ_S at each point: the per-round state a router
// keeps for reconciliation is just these evaluations, updatable
// incrementally as packets arrive.
func EvaluateCharPoly(set []uint64, points []uint64) []uint64 {
	return EvaluateCharPolyInto(make([]uint64, len(points)), set, points)
}

// ReconcilePoints returns n deterministic evaluation points, chosen high in
// the field where hashed fingerprints are vanishingly unlikely to collide
// with them.
func ReconcilePoints(n int) []uint64 {
	pts := make([]uint64, n)
	for i := range pts {
		pts[i] = FieldPrime - 1 - uint64(i)*2654435761
	}
	return pts
}

// ErrReconcile reports that the difference exceeded the evaluation budget
// or the evaluations were degenerate.
var ErrReconcile = errors.New("summary: set reconciliation failed")

// Reconcile recovers the multiset differences A∖B and B∖A from the two
// parties' characteristic-polynomial evaluations at the shared points
// (Appendix A). sizeA and sizeB are the multiset sizes; the recoverable
// difference |A∖B| + |B∖A| is bounded by len(points) − 1 (one point is
// reserved for verification). A negative size is an error: it is no
// multiset's, and the degree search below would overflow on it.
func Reconcile(evalA, evalB, points []uint64, sizeA, sizeB int) (onlyA, onlyB []uint64, err error) {
	if len(evalA) != len(points) || len(evalB) != len(points) {
		return nil, nil, fmt.Errorf("%w: evaluation/point length mismatch", ErrReconcile)
	}
	if sizeA < 0 || sizeB < 0 {
		return nil, nil, fmt.Errorf("%w: negative set size", ErrReconcile)
	}
	delta := sizeA - sizeB
	ratio := make([]uint64, len(points))
	for i := range points {
		if evalB[i] == 0 || evalA[i] == 0 {
			return nil, nil, fmt.Errorf("%w: evaluation point coincides with a set element", ErrReconcile)
		}
		ratio[i] = mulMod(evalA[i], invMod(evalB[i]))
	}

	abs := delta
	if abs < 0 {
		abs = -abs
	}
	maxD := len(points) - 1
	for d := abs; d <= maxD; d += 2 {
		dA := (d + delta) / 2
		dB := (d - delta) / 2
		if dA < 0 || dB < 0 {
			continue
		}
		p, q, ok := solveRational(ratio, points, dA, dB)
		if !ok {
			continue
		}
		rootsA, okA := allRoots(p)
		if !okA {
			continue
		}
		rootsB, okB := allRoots(q)
		if !okB {
			continue
		}
		return rootsA, rootsB, nil
	}
	return nil, nil, fmt.Errorf("%w: difference exceeds %d", ErrReconcile, maxD)
}

// solveRational finds monic P (deg dA) and Q (deg dB) with
// P(z_i) = ratio_i · Q(z_i) at all points, using the first dA+dB for the
// linear system and the rest for verification.
func solveRational(ratio, points []uint64, dA, dB int) (p, q poly, ok bool) {
	n := dA + dB // unknowns: p_0..p_{dA-1}, q_0..q_{dB-1}
	if n+1 > len(points) {
		return nil, nil, false
	}
	// Build augmented matrix rows: Σ_j p_j z^j − r Σ_j q_j z^j = r z^{dB} − z^{dA}.
	rows := make([][]uint64, n)
	for i := 0; i < n; i++ {
		z, r := points[i]%FieldPrime, ratio[i]
		row := make([]uint64, n+1)
		zp := uint64(1)
		for j := 0; j < dA; j++ {
			row[j] = zp
			zp = mulMod(zp, z)
		}
		zdA := zp // z^dA
		zp = uint64(1)
		for j := 0; j < dB; j++ {
			row[dA+j] = subMod(0, mulMod(r, zp))
			zp = mulMod(zp, z)
		}
		zdB := zp // z^dB
		row[n] = subMod(mulMod(r, zdB), zdA)
		rows[i] = row
	}
	sol, ok := gaussianSolve(rows, n)
	if !ok {
		return nil, nil, false
	}
	p = make(poly, dA+1)
	copy(p, sol[:dA])
	p[dA] = 1
	q = make(poly, dB+1)
	copy(q, sol[dA:])
	q[dB] = 1

	// Verify on held-out points.
	for i := n; i < len(points); i++ {
		z := points[i] % FieldPrime
		if p.eval(z) != mulMod(ratio[i], q.eval(z)) {
			return nil, nil, false
		}
	}
	// P and Q must be coprime (common factors mean d was overestimated).
	if dA > 0 && dB > 0 {
		if g := polyGCD(p, q); g.deg() > 0 {
			return nil, nil, false
		}
	}
	return p, q, true
}

// gaussianSolve solves an n×n system with augmented rows over GF(p).
func gaussianSolve(rows [][]uint64, n int) ([]uint64, bool) {
	if n == 0 {
		return nil, true
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if rows[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, false
		}
		rows[col], rows[pivot] = rows[pivot], rows[col]
		inv := invMod(rows[col][col])
		for j := col; j <= n; j++ {
			rows[col][j] = mulMod(rows[col][j], inv)
		}
		for r := 0; r < n; r++ {
			if r == col || rows[r][col] == 0 {
				continue
			}
			factor := rows[r][col]
			for j := col; j <= n; j++ {
				rows[r][j] = subMod(rows[r][j], mulMod(factor, rows[col][j]))
			}
		}
	}
	sol := make([]uint64, n)
	for i := range sol {
		sol[i] = rows[i][n]
	}
	return sol, true
}

// allRoots factors a monic polynomial that should split into linear factors
// over GF(p) (with multiplicity), returning its roots. It reports failure
// if the polynomial does not fully split — which signals that the rational
// fit was spurious.
func allRoots(f poly) ([]uint64, bool) {
	f = f.clone().normalize()
	if len(f) == 0 {
		return nil, false
	}
	if f.deg() == 0 {
		return nil, true
	}
	var roots []uint64
	// Strip multiplicities by repeated root division after finding the
	// distinct roots of the squarefree part.
	distinct, ok := distinctRoots(f)
	if !ok {
		return nil, false
	}
	for _, r := range distinct {
		lin := poly{subMod(0, r), 1}
		for {
			q, rem := polyDivMod(f, lin)
			if len(rem) != 0 {
				break
			}
			roots = append(roots, r)
			f = q
		}
	}
	if f.deg() != 0 {
		return nil, false // did not split completely
	}
	return roots, true
}

// distinctRoots returns the distinct GF(p) roots of f via Cantor–Zassenhaus
// equal-degree splitting on the product of linear factors.
func distinctRoots(f poly) ([]uint64, bool) {
	// g = gcd(x^p − x, f): the product of f's distinct linear factors.
	xp := polyPowMod(poly{0, 1}, FieldPrime, f)
	g := polyGCD(polySub(xp, poly{0, 1}), f)
	if g.deg() == 0 {
		return nil, false
	}
	var roots []uint64
	rng := rand.New(rand.NewSource(int64(g.deg())*7919 + 13))
	var split func(h poly) bool
	split = func(h poly) bool {
		switch h.deg() {
		case 0:
			return true
		case 1:
			// h = c0 + c1 x ⇒ root = −c0/c1.
			roots = append(roots, mulMod(subMod(0, h[0]), invMod(h[1])))
			return true
		}
		for attempt := 0; attempt < 64; attempt++ {
			a := rng.Uint64() % FieldPrime
			// w = (x + a)^((p−1)/2) − 1 mod h.
			base := poly{a, 1}
			w := polyPowMod(base, (FieldPrime-1)/2, h)
			w = polySub(w, poly{1})
			d := polyGCD(w, h)
			if d.deg() > 0 && d.deg() < h.deg() {
				other, _ := polyDivMod(h, d)
				return split(d) && split(polyScale(other, invMod(other[len(other)-1])))
			}
		}
		return false
	}
	if !split(g) {
		return nil, false
	}
	return roots, true
}
