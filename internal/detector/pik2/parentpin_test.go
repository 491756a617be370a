package pik2_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"routerwatch/internal/mutation"
	"routerwatch/internal/protocol"
)

// TestVerdictsMatchParent is ISSUE 24's "same answers" written down as
// digests: SHA-256 of (*detector.Log).String() — every field of every
// suspicion, Detail included — taken at the parent commit (b3ecda9: every
// monitored segment signs and sends a summary every round, empty or not) in
// a pristine clone before agent.go was edited. With silence standing for
// the empty summary the two benchmark workloads, the capture golden's
// scenario, the Abilene replay scenario and every Πk+2 survivor must reach
// the same verdicts at the same instants for the same stated reasons.
func TestVerdictsMatchParent(t *testing.T) {
	// The survivors are committed evasions: their transcript is empty at the
	// parent, and the pin is that no suspicion appears in it now.
	const noSuspicions = "e3b0c44298fc1c149afbf4c8"
	want := map[string]string{
		"mesh-forward":      "fa6be229afd88d8b091239ce", // 2 500 suspicions
		"isp-converge":      "2b0de781e8ef6a060facf3b5", // 4 500
		"abilene-pik2":      "158e18a220bf10ce58fd3fcb", // 22
		"line5drop":         "b39faf0322a26a259ea37df3", // 10
		"survivor-mix-001":  noSuspicions,
		"survivor-mix-004":  noSuspicions,
		"survivor-rate-001": noSuspicions,
		"survivor-rate-002": noSuspicions,
		"survivor-rate-003": noSuspicions,
	}
	specs := map[string]*protocol.Spec{
		"mesh-forward": loadSpec(t, "../../../bench/workloads/mesh-forward.json"),
		"isp-converge": loadSpec(t, "../../../bench/workloads/isp-converge.json"),
		"abilene-pik2": loadSpec(t, "../../capture/testdata/abilene-pik2.json"),
		"line5drop":    conformanceLine5Spec(),
	}
	survs, err := mutation.LoadSurvivors("../../mutation/testdata/survivors")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range survs {
		if s.Spec.Protocol == "pik2" {
			specs["survivor-"+s.ID] = s.Spec
		}
	}
	if len(specs) != len(want) {
		t.Fatalf("%d scenarios, %d pins — corpus moved?", len(specs), len(want))
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := protocol.Run(spec, protocol.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(res.Log.String()))
			if got := hex.EncodeToString(sum[:12]); got != want[name] {
				t.Errorf("verdict transcript digest %s, parent's %s (%d suspicions)", got, want[name], res.Log.Len())
			}
		})
	}
}

func loadSpec(t *testing.T, path string) *protocol.Spec {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := protocol.DecodeSpec(data)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return spec
}
