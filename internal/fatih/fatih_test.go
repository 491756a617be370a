package fatih

import (
	"testing"
	"time"

	"routerwatch/internal/detector"
	"routerwatch/internal/packet"
)

func runScenario(t *testing.T) *ScenarioResult {
	t.Helper()
	return RunAbilene(ScenarioOptions{Seed: 5})
}

func TestAbileneScenarioTimeline(t *testing.T) {
	res := runScenario(t)

	// Convergence precedes traffic.
	if res.ConvergedAt == 0 || res.ConvergedAt > 60*time.Second {
		t.Fatalf("routing converged at %v", res.ConvergedAt)
	}

	// Detection: within two validation rounds (plus exchange timeout) of
	// the attack.
	if res.FirstDetectionAt == 0 {
		t.Fatal("attack never detected")
	}
	if res.FirstDetectionAt < res.AttackAt {
		t.Fatalf("detected at %v, before the attack at %v", res.FirstDetectionAt, res.AttackAt)
	}
	if limit := res.AttackAt + 11*time.Second; res.FirstDetectionAt > limit {
		t.Fatalf("detection at %v, want before %v", res.FirstDetectionAt, limit)
	}

	// Response: a reroute follows within the OSPF delay+hold window.
	if res.RerouteAt == 0 {
		t.Fatal("no reroute after detection")
	}
	if gap := res.RerouteAt - res.FirstDetectionAt; gap > 16*time.Second {
		t.Fatalf("reroute %v after detection, want within delay+hold (15 s + margin)", gap)
	}
}

func TestAbileneRTTShift(t *testing.T) {
	// Fig 5.7's RTT signature: ≈50 ms on the Kansas City path before the
	// attack, ≈56 ms on the southern path after isolation.
	res := runScenario(t)
	if res.PreAttackRTT < 48*time.Millisecond || res.PreAttackRTT > 53*time.Millisecond {
		t.Fatalf("pre-attack RTT %v, want ≈50 ms", res.PreAttackRTT)
	}
	if res.PostRerouteRTT < 54*time.Millisecond || res.PostRerouteRTT > 60*time.Millisecond {
		t.Fatalf("post-reroute RTT %v, want ≈56 ms", res.PostRerouteRTT)
	}
	if res.PostRerouteRTT <= res.PreAttackRTT {
		t.Fatal("RTT did not increase after rerouting to the longer path")
	}
}

func TestAbileneIsolation(t *testing.T) {
	// After the reroute settles, transit traffic no longer crosses the
	// compromised Kansas City router ("its neighboring routers will no
	// longer forward traffic through it", §5.3.2).
	res := runScenario(t)
	if res.KCTransitTail > 0 {
		t.Fatalf("%d packets still transited Kansas City at the end of the run", res.KCTransitTail)
	}
}

func TestAbileneDetectorsAreKCNeighbors(t *testing.T) {
	// The segments through Kansas City are validated by Denver, Houston
	// and Indianapolis (§5.3.2); the original detections must come from
	// them (other routers adopt flooded suspicions afterwards).
	res := runScenario(t)
	g := res.System.Net.Graph()
	kc, _ := g.Lookup("KansasCity")

	gt := detector.NewGroundTruth([]packet.NodeID{kc}, nil)
	if v := detector.CheckAccuracy(res.System.Log, gt, 3); len(v) != 0 {
		t.Fatalf("accuracy violations: %v", v)
	}
	for _, seg := range res.System.Log.Segments() {
		if !seg.Contains(kc) {
			t.Fatalf("suspected segment %v does not contain Kansas City", seg)
		}
	}
	// Every correct router eventually adopts a suspicion (strong
	// completeness via the alert flood).
	missing := detector.CheckCompleteness(res.System.Log, gt, kc, g.Nodes())
	if len(missing) != 0 {
		t.Fatalf("routers without suspicion: %v", missing)
	}
}

func TestAbileneNoAttackCleanRun(t *testing.T) {
	res := RunAbilene(ScenarioOptions{
		Seed:     6,
		AttackAt: 190 * time.Second, // effectively never (run is 200 s)
		Duration: 180 * time.Second,
	})
	if res.System.Log.Len() != 0 {
		t.Fatalf("suspicions without attack: %v", res.System.Log.All())
	}
	if res.FirstDetectionAt != 0 {
		t.Fatal("phantom detection")
	}
	if len(res.RTT) < 200 {
		t.Fatalf("only %d RTT samples", len(res.RTT))
	}
}
