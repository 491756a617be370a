// Package envpurity exercises the interprocedural Env-purity sweep.
package envpurity

import (
	crand "crypto/rand"
	"io"
	mrand "math/rand"
	"time"

	"protocol"
)

// inst implements protocol.Backend; its violation sits two calls below
// the contract method — invisible to the intraprocedural walltime lint.
type inst struct{}

func (inst) Step() int {
	return helper1()
}

func helper1() int { return helper2() }

func helper2() int {
	t := time.Now() // want `time\.Now reached from Env-attached code \(via \(envpurity\.inst\)\.Step → envpurity\.helper1 → envpurity\.helper2\)`
	return int(t.Unix())
}

// env implements protocol.Env; the global-RNG violation is direct.
type env struct{}

func (env) Now() int64 {
	return mrand.Int63() // want `math/rand\.Int63 reached from Env-attached code`
}

// source is dispatched through a local interface from a contract method:
// the implemented-by set carries the sweep into badSource.
type source interface{ draw() int }

type badSource struct{}

func (badSource) draw() int {
	b := make([]byte, 1)
	crand.Read(b) // want `crypto/rand\.Read reached from Env-attached code`
	if _, err := io.ReadFull(crand.Reader, b); err != nil { // want `crypto/rand\.Reader reached from Env-attached code`
		return 0
	}
	return int(b[0])
}

type inst2 struct{ s source }

func (i inst2) Step() int { return i.s.draw() }

// attach is rooted through the Register call below: the function value
// flows into the registry, so everything it reaches is Env-attached.
func attach() protocol.Backend {
	_ = seedFromClock()
	return inst{}
}

func seedFromClock() int64 {
	return time.Now().UnixNano() // want `time\.Now reached from Env-attached code`
}

func init() {
	protocol.Register("bad", attach)
}

// allowedClock carries a justified Allow entry (installed by the test):
// no diagnostic despite being reachable from a contract method.
func allowedClock() int64 { return time.Now().UnixNano() }

type inst3 struct{}

func (inst3) Step() int { return int(allowedClock()) }

// unreachedClock is not reachable from any root: envpurity stays silent
// (the per-package walltime lint owns direct violations module-wide).
func unreachedClock() time.Duration { return time.Since(time.Unix(0, 0)) }

// okRNG threads an explicit generator — the sanctioned pattern — and uses
// only legal time arithmetic.
type inst4 struct{ r *mrand.Rand }

func (i inst4) Step() int {
	if i.r == nil {
		i.r = mrand.New(mrand.NewSource(1))
	}
	return int(time.Second) + i.r.Intn(4)
}

// open is rooted as a constructor: it returns a Backend implementation, so
// what it reaches builds the deployment — though no contract method leads
// here and nothing registers it.
type inst5 struct{ seed int64 }

func (inst5) Step() int { return 0 }

func open() *inst5 { return &inst5{seed: clockSeed()} }

func clockSeed() int64 {
	return time.Now().UnixNano() // want `time\.Now reached from Env-attached code \(via envpurity\.open → envpurity\.clockSeed\)`
}
