package catalog

import (
	"testing"
	"time"

	"routerwatch/internal/packet"
	"routerwatch/internal/protocol"
	"routerwatch/internal/protocol/envtest"
)

// accuracyBound is the a-Accuracy precision bound (§4.2.2) each protocol
// claims: replica pinpoints one router, Π2/WATCHERS/χ name pairs (χ's
// queue suspicion spans ⟨R−1, R, RD⟩), Πk+2 and Fatih name k+2 = 3
// segment ends.
var accuracyBound = map[string]int{
	"pi2":      2,
	"watchers": 2,
	"chi":      3,
	"pik2":     3,
	"fatih":    3,
}

// floods marks the protocols whose suspicions reach every correct router
// (Π2/Πk+2 flood via the consensus service, Fatih via link-state
// announcements) — only they owe strong completeness. WATCHERS and χ make
// local detections.
var floods = map[string]bool{"pi2": true, "pik2": true, "fatih": true}

// TestRegistryCoversPaperProtocols pins the acceptance criterion that the
// dissertation's four detection protocols are constructible by name.
func TestRegistryCoversPaperProtocols(t *testing.T) {
	for _, name := range []string{"pi2", "pik2", "chi", "watchers", "fatih"} {
		if _, err := protocol.Lookup(name); err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		}
	}
}

// trimmed returns the protocol's canonical scenario, shortened where that
// loses nothing: the line protocols detect a 30% dropper within a few
// rounds of its t=5s start, and Fatih's timeline is settled well before
// the canonical 240s mark (attack at 117s, reroute within seconds).
func trimmed(d protocol.Descriptor, seed int64, clean bool) *protocol.Spec {
	spec := d.DefaultSpec(seed, clean)
	switch spec.Topology.Kind {
	case "line":
		spec.Duration = protocol.Duration(15 * time.Second)
		for i := range spec.Traffic {
			spec.Traffic[i].Count = int(spec.Duration.D().Seconds() * 500)
		}
	case "abilene":
		if clean {
			spec.Duration = protocol.Duration(90 * time.Second)
		} else {
			spec.Duration = protocol.Duration(150 * time.Second)
		}
	}
	return spec
}

// TestConformance is the refactor's regression net: every registered
// protocol with a canonical scenario runs it clean and under a single
// dropping router, and the §4.2.2 property checkers judge the suspicion
// log — no false accusations ever, the faulty router implicated within
// the precision bound when attacked, and strong completeness for the
// flooding protocols.
func TestConformance(t *testing.T) {
	ran := 0
	for _, name := range protocol.Names() {
		d, err := protocol.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if d.DefaultSpec == nil {
			// replica and queue-monitor are deployment-bound baselines
			// (they watch one configured router/queue); they have no
			// self-contained canonical scenario.
			continue
		}
		ran++
		bound, ok := accuracyBound[name]
		if !ok {
			t.Fatalf("protocol %q has a DefaultSpec but no accuracy bound registered in this test", name)
		}

		t.Run(name+"/clean", func(t *testing.T) {
			t.Parallel()
			res, err := protocol.Run(trimmed(d, 1, true), protocol.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Faulty != -1 || len(res.FaultySet) != 0 {
				t.Errorf("clean scenario reports faulty router %v, fault set %v", res.Faulty, res.FaultySet)
			}
			// With nothing faulty, any suspicion is a false accusation.
			envtest.CheckDetection(t, envtest.Detection{Log: res.Log, Accuracy: bound})
		})

		t.Run(name+"/drop", func(t *testing.T) {
			t.Parallel()
			res, err := protocol.Run(trimmed(d, 1, false), protocol.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// FaultyContains reads the set: a custom scenario fills it too.
			if res.Faulty < 0 || len(res.FaultySet) == 0 || res.FaultySet[0] != res.Faulty {
				t.Fatalf("attacked scenario reports faulty router %v, fault set %v", res.Faulty, res.FaultySet)
			}
			envtest.CheckDetection(t, envtest.Detection{
				Log:      res.Log,
				Faulty:   []packet.NodeID{res.Faulty},
				Accuracy: bound,
				Complete: floods[name],
				Nodes:    res.Net.Graph().Nodes(),
			})
		})
	}
	if ran == 0 {
		t.Fatal("no registered protocol offers a DefaultSpec")
	}
}

// TestRespondEveryProtocol pins that "routing": {"respond": true} closes the
// response loop for every protocol that raises suspicions through its sink:
// the runtime tees routing.(*Protocol).Respond in after the log, so no
// adapter has a second hook to remember. WATCHERS' adapter never merged the
// old one — its spec ran to completion and excised nothing.
func TestRespondEveryProtocol(t *testing.T) {
	for _, name := range []string{"pik2", "pi2", "watchers"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			d, err := protocol.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			spec := trimmed(d, 1, false)
			spec.Routing = &protocol.RoutingSpec{
				Delay: protocol.Duration(time.Second), Hold: protocol.Duration(2 * time.Second),
				Converge: protocol.Duration(30 * time.Second), Respond: true,
			}
			res, err := protocol.Run(spec, protocol.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Log.Len() == 0 {
				t.Fatal("the dropping router raised no suspicion")
			}
			for _, s := range res.Log.All() {
				if res.Routing.Daemon(s.By).Exclusions().Len() > 0 {
					return
				}
			}
			t.Errorf("%d suspicions, yet no suspecting router excluded anything:\n%s", res.Log.Len(), res.Log)
		})
	}
}
