package fatih

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"routerwatch/internal/telemetry"
)

// TestAbileneTelemetry is the observability acceptance check: an
// instrumented scenario run must surface the Fig 5.7 story — attack onset,
// per-router suspicion instants and the OSPF reconvergence — on the virtual
// trace timeline, with the detector and forwarding counters populated, and
// the trace must export as loadable Chrome trace-event JSON.
func TestAbileneTelemetry(t *testing.T) {
	tel := telemetry.New(0)
	res := RunAbilene(ScenarioOptions{Seed: 5, Telemetry: tel})

	// The instrumented run is observed, never perturbed: its timeline must
	// match the bare run of the same seed.
	bare := RunAbilene(ScenarioOptions{Seed: 5})
	if res.FirstDetectionAt != bare.FirstDetectionAt || res.RerouteAt != bare.RerouteAt {
		t.Fatalf("telemetry perturbed the run: detection %v vs %v, reroute %v vs %v",
			res.FirstDetectionAt, bare.FirstDetectionAt, res.RerouteAt, bare.RerouteAt)
	}

	byName := map[string][]telemetry.Event{}
	for _, ev := range tel.Tracer().Events() {
		byName[ev.Name] = append(byName[ev.Name], ev)
	}
	for _, name := range []string{"routing-converged", "attack-onset", "suspicion", "ospf-recompute", "pik2 round"} {
		if len(byName[name]) == 0 {
			t.Errorf("trace has no %q events", name)
		}
	}
	if evs := byName["attack-onset"]; len(evs) == 1 && evs[0].TS != res.AttackAt {
		t.Errorf("attack-onset at %v on the trace, scenario says %v", evs[0].TS, res.AttackAt)
	}
	// Suspicions trace on the suspecting router's track, after the attack.
	suspects := map[int32]bool{}
	for _, ev := range byName["suspicion"] {
		if ev.TS < res.AttackAt {
			t.Errorf("suspicion traced at %v, before the attack at %v", ev.TS, res.AttackAt)
		}
		suspects[ev.TID] = true
	}
	if len(suspects) < 2 {
		t.Errorf("suspicion instants on %d router tracks, want the KC neighbors at least", len(suspects))
	}
	// Reconvergence after the alert shows up as post-detection recomputes.
	post := 0
	for _, ev := range byName["ospf-recompute"] {
		if ev.TS >= res.FirstDetectionAt {
			post++
		}
	}
	if post == 0 {
		t.Error("no ospf-recompute events after the first detection")
	}

	var buf bytes.Buffer
	if err := tel.Tracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("Chrome trace export is empty")
	}
	if !strings.Contains(buf.String(), `"KansasCity"`) {
		t.Error("trace lost the router track names")
	}

	snap := tel.Registry().Snapshot()
	nonzero := 0
	for _, c := range snap.Counters {
		if c.Value > 0 {
			nonzero++
		}
	}
	if nonzero < 10 {
		t.Errorf("only %d non-zero counters after a full scenario", nonzero)
	}
	for _, base := range []string{
		"rw_detector_suspicions_total", "rw_detector_fingerprints_total",
		"rw_routing_recomputes_total", "rw_sim_events_total",
	} {
		found := false
		for _, c := range snap.Counters {
			if strings.HasPrefix(c.Name, base) && c.Value > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("metric %s missing or zero", base)
		}
	}
}
