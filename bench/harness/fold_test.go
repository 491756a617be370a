package harness

import (
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"routerwatch/internal/auth"
)

// TestFoldTraces folds a fixed `go tool pprof -traces` text. The fixture
// holds 2 s of samples, among them the cases the attribution rule exists
// for: SHA-256 under auth.Sign under the detector is auth's; map access
// under routing is routing's; stacks with no routerwatch frame (the
// scheduler, a GC worker) are the runtime's; a block with a label line
// still counts; a routerwatch package outside the layer list and the
// harness's own frames are "other".
func TestFoldTraces(t *testing.T) {
	text, err := os.ReadFile(filepath.Join("testdata", "pprof_traces.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := foldTraces(string(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"runtime":  0.100, // 50ms scheduler + 150ms GC worker
		"sim":      0.100,
		"tcpsim":   0.050,
		"queue":    0.020, // encoding/binary under queue, called by chi
		"auth":     0.150, // sha256 under auth under pik2
		"routing":  0.510,
		"detector": 0.030, // the labelled block
		"other":    0.040, // 30ms internal/attack + 50ms harness judge
	}
	sum := 0.0
	for layer, share := range got {
		sum += share
		if math.Abs(share-want[layer]) > 1e-9 {
			t.Errorf("share.%s = %v, want %v", layer, share, want[layer])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(got) != 15 {
		t.Errorf("%d layers folded, want all 15 (absent ones as 0)", len(got))
	}
}

func TestFoldTracesRejectsEmptyProfile(t *testing.T) {
	if _, err := foldTraces("File: x\nType: cpu\n"); err == nil {
		t.Error("a profile with no samples folded without error")
	}
}

// TestProfileShares drives the real tool over a real profile of auth.Sign,
// and checks that without the tool the shares come back as an error — which
// a traced run reports as absent — instead of a crash.
func TestProfileShares(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	a, body := auth.NewAuthority(1), make([]byte, 512)
	for start := time.Now(); time.Since(start) < 150*time.Millisecond; {
		a.Sign(3, body)
	}
	pprof.StopCPUProfile()
	f.Close()

	shares, err := profileShares(path)
	if err != nil {
		t.Skipf("go tool pprof is not usable here: %v", err)
	}
	if shares["auth"] < 0.5 {
		t.Errorf("share.auth = %v of a profile that only signs, want most of it", shares["auth"])
	}

	t.Setenv("PATH", t.TempDir())
	if _, err := profileShares(path); err == nil {
		t.Error("profileShares succeeded with no go tool on PATH")
	}
}
