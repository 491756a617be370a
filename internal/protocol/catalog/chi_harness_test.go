package catalog

import (
	"math/rand"
	"testing"
	"time"

	"routerwatch/internal/attack"
	"routerwatch/internal/detector"
	"routerwatch/internal/detector/chi"
	"routerwatch/internal/protocol"
	"routerwatch/internal/tcpsim"
)

// TestChiScenarioIsHarnessTranslation guards runChiScenario's Spec →
// ChiHarness translation: the canonical χ spec through protocol.Run, and
// the same parameters handed to the harness directly, must produce the same
// calibration and the same verdict transcript.
func TestChiScenarioIsHarnessTranslation(t *testing.T) {
	const seed = 5
	res, err := protocol.Run(chiDefaultSpec(seed, false), protocol.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	log := detector.NewLog()
	run := ChiHarness{
		Seed: seed, AttackAt: 10 * time.Second, Duration: 30 * time.Second,
		Sink: detector.LogSink(log),
		Attack: func(flows []*tcpsim.Flow) *attack.Dropper {
			return &attack.Dropper{
				Select: attack.And(attack.ByFlow(flows[0].ID()), attack.DataOnly),
				P:      0.2, Rng: rand.New(rand.NewSource(seed)),
			}
		},
	}.Run()

	if cal, ok := res.Extra.(chi.Calibration); !ok || cal != run.Calibration {
		t.Errorf("calibration: scenario %+v, harness %+v", res.Extra, run.Calibration)
	}
	if log.Len() == 0 {
		t.Fatal("harness run raised no suspicions; the comparison would be vacuous")
	}
	if got, want := res.Log.String(), log.String(); got != want {
		t.Errorf("verdict transcripts differ\nscenario:\n%sharness:\n%s", got, want)
	}
	if res.Engine == nil || res.Faulty != run.Topology.R {
		t.Errorf("scenario result: engine %T, faulty %v (want R = %v)", res.Engine, res.Faulty, run.Topology.R)
	}
}
