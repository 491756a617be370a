package routerwatch

import (
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"routerwatch/internal/analysis/driver"
	"routerwatch/internal/analysis/load"
	"routerwatch/internal/analysis/suite"
)

// module is the type-checked non-test source of the whole module (bench/'s
// non-test packages included), loaded once for the tests that sweep it.
var module = sync.OnceValue(func() (m struct {
	l    *load.Loader
	pkgs []*load.Package
	err  error
}) {
	m.l = load.New(load.Config{Dir: ".", Module: "routerwatch"})
	m.pkgs, m.err = m.l.LoadAll()
	return m
})

func loadModule(t *testing.T) (*load.Loader, []*load.Package) {
	m := module()
	if m.err != nil {
		t.Fatal(m.err)
	}
	return m.l, m.pkgs
}

// TestDeterminismInvariants drives the rwlint analyzer suite over the
// whole module from inside `go test ./...`, so the determinism invariants
// are enforced even when nobody runs the standalone binary. It replaces
// the old parser-only TestNoGlobalRand walk (rand_hygiene_test.go), which
// missed aliased imports, dot imports and math/rand/v2 and covered only
// one of the invariants; the type-aware analyzers close those holes. See
// DESIGN.md "Static analysis" for the invariant catalogue; cmd/rwlint runs
// the same suite.Analyzers list.
func TestDeterminismInvariants(t *testing.T) {
	l, pkgs := loadModule(t)

	// The protocol runtime is the layer third-party Env backends plug
	// into; it must be in the analyzed set so they inherit the
	// determinism contract (no global math/rand, no wall clock) from day
	// one. Pin its presence: a loader change that silently skipped it
	// would turn the analyzers below into a false green.
	analyzed := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		analyzed[p.Path] = true
	}
	for _, want := range []string{
		"routerwatch/internal/protocol",
		"routerwatch/internal/protocol/catalog",
		// The adversary layers: injected-RNG discipline in the attack
		// behaviours and the mutation campaign is what makes fixed-seed
		// campaigns bitwise reproducible, so both stay pinned under the
		// globalrand/walltime analyzers.
		"routerwatch/internal/attack",
		"routerwatch/internal/mutation",
		// The capture subsystem replays recorded traffic under the same
		// determinism contract the simulator honors: TraceEnv is an Env
		// backend, so its clock, RNG streams and replay pump must stay
		// free of global rand and wall-clock reads.
		"routerwatch/internal/capture",
		// The trial fan-out and the simulator core are where the
		// interprocedural analyzers bite: runner's fan-out calls every
		// trial body, and sim hosts the Env-attached call chains envpurity
		// sweeps. Pin both so a load regression cannot shrink the call
		// graph out from under them.
		"routerwatch/internal/runner",
		"routerwatch/internal/sim",
		// The batched hot path: auth's scratch-buffer MAC batching and
		// summary's fingerprint sets sit on every per-round signing and
		// exchange path, so both stay pinned under the alloc/purity
		// analyzers.
		"routerwatch/internal/auth",
		"routerwatch/internal/summary",
	} {
		if !analyzed[want] {
			t.Errorf("package %s missing from the analyzed set", want)
		}
	}

	diags, err := driver.Run(l, pkgs, suite.Analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", driver.Format(l.Fset, d))
	}
}

// planted is one violation per analyzer of the suite, each a new file in
// the real package the analyzer polices. Every function is unreferenced and
// every file trips exactly one analyzer: the wall-clock read sits outside
// anything Env-attached code reaches (envpurity stays silent on it), and
// crypto/rand is banned by envpurity alone.
var planted = []struct {
	analyzer, file, src string
}{
	{"globalrand", "internal/attack/planted.go", `package attack

import "math/rand"

var planted = rand.Intn(3)
`},
	{"hotpathalloc", "internal/auth/planted.go", `package auth

import (
	"crypto/hmac"
	"crypto/sha256"
	"hash"
)

func planted(key []byte) hash.Hash { return hmac.New(sha256.New, key) }
`},
	{"walltime", "internal/network/planted.go", `package network

import "time"

func planted() time.Time { return time.Now() }
`},
	{"mapyield", "internal/detector/planted.go", `package detector

import (
	"fmt"
	"io"
)

func planted(w io.Writer, m map[string]int) {
	for k := range m {
		fmt.Fprintln(w, k)
	}
}
`},
	{"nilinstrument", "internal/telemetry/planted.go", `package telemetry

func (c *Counter) Planted() int64 { return c.v.Load() }
`},
	{"envpurity", "internal/protocol/planted.go", `package protocol

import crand "crypto/rand"

func plantedEnv() Env {
	var b [8]byte
	_, _ = crand.Read(b[:])
	return nil
}
`},
	{"errsink", "internal/capture/planted.go", `package capture

import "os"

func planted(f *os.File) { f.Close() }
`},
}

// TestAnalyzersFireOnPlantedViolations is the other half of
// TestDeterminismInvariants: zero findings on the tree only means something
// if each analyzer can fire on that tree. It copies the module's non-test
// source into a temp dir, plants one violation per analyzer in the package
// that analyzer polices, loads the copy the way rwlint loads the module and
// requires exactly the planted (analyzer, file) pairs — so module-mode
// loading, every allowlist and envpurity's derived roots are proven against
// the code that ships, where the analysistest fixtures prove them on a toy
// GOPATH tree. Removing an analyzer from suite.Analyzers fails it.
func TestAnalyzersFireOnPlantedViolations(t *testing.T) {
	tmp := t.TempDir()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(tmp, filepath.Dir(path)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(tmp, path), src, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	plantedFor := make(map[string]bool)
	for _, p := range planted {
		if err := os.WriteFile(filepath.Join(tmp, filepath.FromSlash(p.file)), []byte(p.src), 0o644); err != nil {
			t.Fatal(err)
		}
		want = append(want, p.analyzer+" "+p.file)
		plantedFor[p.analyzer] = true
	}
	slices.Sort(want)
	for _, a := range suite.Analyzers {
		if !plantedFor[a.Name] {
			t.Errorf("analyzer %s is in the suite with no planted violation", a.Name)
		}
	}

	l := load.New(load.Config{Dir: tmp, Module: "routerwatch"})
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := driver.Run(l, pkgs, suite.Analyzers)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		rel, err := filepath.Rel(tmp, l.Fset.Position(d.Pos).Filename)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, d.Category+" "+filepath.ToSlash(rel))
	}
	slices.Sort(got)
	got = slices.Compact(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("(analyzer, file) pairs reported:\n  %s\nwant exactly:\n  %s\nall diagnostics:",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		for _, d := range diags {
			t.Logf("%s", driver.Format(l.Fset, d))
		}
	}
}
