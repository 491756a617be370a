package routerwatch

import (
	"testing"
	"time"

	"routerwatch/internal/detector"
	"routerwatch/internal/detector/pik2"
	"routerwatch/internal/detector/tvinfo"
)

// TestFacadeQuickstart exercises the public surface end to end: the
// README's minimal example must actually detect a compromised router.
func TestFacadeQuickstart(t *testing.T) {
	g := Line(5)
	net := NewNetwork(g, NetworkOptions{Seed: 1})
	log := NewLog()
	AttachPiK2(net, pik2.Options{
		K: 1, Round: 500 * time.Millisecond, Timeout: 100 * time.Millisecond,
		Thresholds: tvinfo.Thresholds{Loss: 2, Fabrication: 2},
		Sink:       detector.LogSink(log),
	})
	net.Router(2).SetBehavior(DropAll())
	for i := 0; i < 300; i++ {
		i := i
		net.Scheduler().At(time.Duration(i)*time.Millisecond+time.Microsecond, func() {
			net.Inject(0, &Packet{Dst: 4, Size: 500, Flow: 1, Seq: uint32(i)})
		})
	}
	net.Run(3 * time.Second)

	if log.Len() == 0 {
		t.Fatal("facade quickstart did not detect the compromised router")
	}
	implicated := false
	for _, seg := range log.Segments() {
		if seg.Contains(2) {
			implicated = true
		}
	}
	if !implicated {
		t.Fatalf("router 2 not implicated: %v", log.Segments())
	}
}

func TestFacadeTopologies(t *testing.T) {
	if Abilene().NumNodes() != 11 {
		t.Fatal("Abilene facade broken")
	}
	if g := NewGraph(); g.NumNodes() != 0 {
		t.Fatal("NewGraph facade broken")
	}
	if DefaultRound != 5*time.Second {
		t.Fatal("DefaultRound changed")
	}
}
