// Package consensus provides the agreement substrate Protocol Π2 needs
// (§5.1): Perlman-style robust flooding (reliable broadcast that reaches
// every correct router despite protocol-faulty relays, given the good-path
// condition §2.1.3) of signed values — the "consensus ... digitally signed
// to prevent an attack" step of Fig 5.1. Π2 collects the delivered values
// per origin and classifies equivocation itself.
//
// With digital signatures and robust flooding, agreement on each router's
// traffic summary reduces to: flood your signed value; accept a value from
// origin o iff o's signature verifies; if two *different* validly signed
// values from o surface, o is provably protocol faulty (equivocation) and
// every correct router learns it, because the conflicting evidence is
// itself flooded.
package consensus

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"

	"routerwatch/internal/auth"
	"routerwatch/internal/network"
	"routerwatch/internal/packet"
)

// KindFlood is the control-message kind used by the flooding service.
const KindFlood = "consensus/flood"

// Msg is a flooded, signed value. A flood carries one Msg from its origin
// to every router: each relay forwards the pointer it was handed, so a Msg
// is immutable once Flood signs it (a subscriber receives a copy; a relay
// that wants to alter a flood must send a Msg of its own).
type Msg struct {
	Origin   packet.NodeID
	Topic    string
	Instance string
	Payload  []byte
	Sig      auth.Signature
}

// AppendSignedBody appends the byte string the origin signs to b and
// returns the extended slice; the flooding hot path reuses one buffer per
// Service through it. The encoding doubles as the deduplication identity:
// its SHA-256 is the message digest, and payload content is included so
// that equivocating messages (same origin/instance, different payload)
// both propagate.
func AppendSignedBody(b []byte, origin packet.NodeID, topic, instance string, payload []byte) []byte {
	var idb [4]byte
	binary.BigEndian.PutUint32(idb[:], uint32(origin))
	b = append(b, idb[:]...)
	b = append(b, topic...)
	b = append(b, 0)
	b = append(b, instance...)
	b = append(b, 0)
	b = append(b, payload...)
	return b
}

// SignedBody returns the byte string the origin signs.
func SignedBody(origin packet.NodeID, topic, instance string, payload []byte) []byte {
	return AppendSignedBody(make([]byte, 0, 16+len(topic)+len(instance)+len(payload)),
		origin, topic, instance, payload)
}

// seenKey identifies one (router, message digest) delivery for the flat
// deduplication map: one map for the whole network instead of a per-router
// map of 32-byte-array keys, halving the lookup chain on the flood path.
type seenKey struct {
	at packet.NodeID
	d  [sha256.Size]byte
}

// Service is the network-wide flooding layer. One Service serves all
// protocols; topics separate them.
type Service struct {
	net  *network.Network
	subs map[packet.NodeID]map[string]func(Msg)
	seen map[seenKey]struct{}

	// dig, body and digBuf are the flood path's reusable digest scratch
	// (per-Service, single-threaded like the simulation that drives it).
	dig    hash.Hash
	body   []byte
	digBuf [sha256.Size]byte
}

// NewService installs flood relays on every router of the network.
func NewService(net *network.Network) *Service {
	s := &Service{
		net:  net,
		subs: make(map[packet.NodeID]map[string]func(Msg)),
		seen: make(map[seenKey]struct{}),
		dig:  sha256.New(),
	}
	for _, r := range net.Routers() {
		id := r.ID()
		r.HandleControl(KindFlood, func(cm *network.ControlMessage) {
			msg, ok := cm.Payload.(*Msg)
			if !ok || msg == nil {
				return
			}
			s.receive(id, msg, cm.From)
		})
	}
	return s
}

// Subscribe registers router r's handler for a topic. Delivery happens at
// most once per distinct message per router.
func (s *Service) Subscribe(r packet.NodeID, topic string, fn func(Msg)) {
	m, ok := s.subs[r]
	if !ok {
		m = make(map[string]func(Msg))
		s.subs[r] = m
	}
	m[topic] = fn
}

// Flood originates a signed value from router `from`. The signature covers
// (origin, topic, instance, payload), so relays cannot alter it
// undetectably — they can only refuse to relay, which robust flooding
// tolerates.
func (s *Service) Flood(from packet.NodeID, topic, instance string, payload []byte) {
	sig := s.net.Auth().Sign(from, SignedBody(from, topic, instance, payload))
	msg := &Msg{Origin: from, Topic: topic, Instance: instance, Payload: payload, Sig: sig}
	s.receive(from, msg, -1)
}

// receive processes a flooded message at router at, delivering locally and
// relaying to all neighbors except the one it came from. The relays carry
// msg itself: one Msg per flood, not one per router that accepts it.
func (s *Service) receive(at packet.NodeID, msg *Msg, from packet.NodeID) {
	// One pass builds the signed body into the reusable buffer; its hash is
	// the dedup digest, so the hot path hashes the message exactly once.
	s.body = AppendSignedBody(s.body[:0], msg.Origin, msg.Topic, msg.Instance, msg.Payload)
	s.dig.Reset()
	s.dig.Write(s.body)
	s.dig.Sum(s.digBuf[:0])
	key := seenKey{at: at, d: s.digBuf}
	if _, dup := s.seen[key]; dup {
		return
	}
	// Correct routers verify the origin signature before delivering (or
	// re-flooding — unsigned garbage must not propagate). Only a verified
	// message is remembered: a forged copy that arrives first must not
	// shadow the genuine one, whose body an attacker can predict.
	if !s.net.Auth().Verify(s.body, msg.Sig) || msg.Sig.Signer != msg.Origin {
		return
	}
	s.seen[key] = struct{}{}
	if fn := s.subs[at][msg.Topic]; fn != nil {
		fn(*msg)
	}
	for _, nb := range s.net.Graph().Neighbors(at) {
		if nb == from {
			continue
		}
		s.net.SendControlDirect(at, nb, KindFlood, msg)
	}
}
