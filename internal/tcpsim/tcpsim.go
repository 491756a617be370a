// Package tcpsim generates the traffic workloads of the Protocol χ
// experiments (§6.4): TCP Reno flows — whose loss-driven congestion-control
// sawtooth is what fills router queues and produces bursty congestive loss
// — plus constant-bit-rate and Poisson sources.
//
// The TCP model implements slow start, congestion avoidance, duplicate-ACK
// fast retransmit, and exponential-backoff retransmission timeouts with the
// long (3 s) initial SYN timeout whose disproportionate cost motivates the
// SYN-drop attack (§6.1.1).
package tcpsim

import (
	"fmt"
	"math"
	"time"

	"routerwatch/internal/network"
	"routerwatch/internal/packet"
	"routerwatch/internal/sim"
)

// Manager multiplexes simulated hosts onto the routers of a network. One
// Manager owns all host-side traffic for a simulation.
type Manager struct {
	net      *network.Network
	flows    map[packet.FlowID]*Flow
	nextFlow packet.FlowID
	rng      interface{ Float64() float64 }
	hosts    map[packet.NodeID]bool
}

// NewManager returns a Manager over the network.
func NewManager(net *network.Network) *Manager {
	return &Manager{
		net:   net,
		flows: make(map[packet.FlowID]*Flow),
		rng:   sim.NewRNG(7717),
		hosts: make(map[packet.NodeID]bool),
	}
}

// host installs the shared local handler on a router once.
func (m *Manager) host(id packet.NodeID) {
	if m.hosts[id] {
		return
	}
	m.hosts[id] = true
	m.net.Router(id).SetLocalHandler(func(p *packet.Packet) { m.deliver(id, p) })
}

func (m *Manager) deliver(at packet.NodeID, p *packet.Packet) {
	f := m.flows[p.Flow]
	if f == nil {
		return
	}
	switch at {
	case f.cfg.Dst:
		f.receiverHandle(p)
	case f.cfg.Src:
		f.senderHandle(p)
	}
}

// FlowConfig parameterizes a TCP flow.
type FlowConfig struct {
	Src, Dst packet.NodeID
	// Start is when the SYN is sent.
	Start time.Duration
	// MaxPackets caps the number of data packets (0 = unbounded).
	MaxPackets int
}

const (
	// mss is the data packet size in bytes.
	mss = 1000
	// initialRTO is the pre-sample retransmission timeout, the long SYN
	// timeout of §6.1.1.
	initialRTO = 3 * time.Second
	// minRTO floors the adaptive RTO.
	minRTO = 200 * time.Millisecond
)

// FlowState is the connection state.
type FlowState int

// Flow states.
const (
	StateIdle FlowState = iota
	StateSynSent
	StateEstablished
	StateDone
)

// Flow is one TCP Reno connection.
type Flow struct {
	m   *Manager
	id  packet.FlowID
	cfg FlowConfig

	state FlowState

	// Sender state. Sequence numbers count MSS-sized segments.
	cwnd     float64
	ssthresh float64
	sndNxt   uint32
	sndUna   uint32
	dupAcks  int
	rto      time.Duration
	srtt     time.Duration
	rttvar   time.Duration
	rtoEvent sim.Handle
	sendTime map[uint32]time.Duration // for RTT sampling (Karn's rule: first tx only)
	inFlight map[uint32]bool

	// cbSYN and cbTimeout are the flow's RTO callbacks, bound once at
	// StartFlow so re-arming the timer never allocates a method value.
	cbSYN     sim.Callback
	cbTimeout sim.Callback

	// Receiver state.
	rcvNxt uint32
	ooo    map[uint32]bool

	// Stats.
	Stats FlowStats
}

// FlowStats aggregates per-flow outcomes used by the experiments.
type FlowStats struct {
	SynSentAt     time.Duration
	EstablishedAt time.Duration
	SynRetries    int
	DataSent      int
	Retransmits   int
	Delivered     int
	LastDeliverAt time.Duration
	Timeouts      int
	FastRetx      int
}

// ConnectLatency returns how long connection establishment took (0 if never
// established) — the victim-visible cost of the SYN attack (Fig 6.9).
func (s FlowStats) ConnectLatency() time.Duration {
	if s.EstablishedAt == 0 {
		return 0
	}
	return s.EstablishedAt - s.SynSentAt
}

// StartFlow creates a TCP flow and schedules its SYN.
func (m *Manager) StartFlow(cfg FlowConfig) *Flow {
	m.nextFlow++
	f := &Flow{
		m:        m,
		id:       m.nextFlow,
		cfg:      cfg,
		cwnd:     1,
		ssthresh: 64,
		rto:      initialRTO,
		sendTime: make(map[uint32]time.Duration),
		inFlight: make(map[uint32]bool),
		ooo:      make(map[uint32]bool),
	}
	f.cbSYN = func(any, int64) { f.sendSYN() }
	f.cbTimeout = func(any, int64) { f.onTimeout() }
	m.flows[f.id] = f
	m.host(cfg.Src)
	m.host(cfg.Dst)
	sched := m.net.Scheduler()
	delay := cfg.Start - sched.Now()
	sched.CallAfter(delay, f.cbSYN, nil, 0)
	return f
}

// ID returns the flow ID (attacks select victims by flow ID).
func (f *Flow) ID() packet.FlowID { return f.id }

// State returns the connection state.
func (f *Flow) State() FlowState { return f.state }

// Throughput returns delivered payload bytes per second between connection
// establishment and the last delivery.
func (f *Flow) Throughput() float64 {
	if f.Stats.EstablishedAt == 0 || f.Stats.LastDeliverAt <= f.Stats.EstablishedAt {
		return 0
	}
	dur := (f.Stats.LastDeliverAt - f.Stats.EstablishedAt).Seconds()
	return float64(f.Stats.Delivered*mss) / dur
}

func (f *Flow) now() time.Duration { return f.m.net.Scheduler().Now() }

func (f *Flow) sendSYN() {
	if f.state == StateEstablished || f.state == StateDone {
		return
	}
	if f.state == StateIdle {
		f.Stats.SynSentAt = f.now()
		f.state = StateSynSent
	} else {
		f.Stats.SynRetries++
	}
	p := f.m.net.NewPacket()
	p.Dst, p.Flow, p.Flags = f.cfg.Dst, f.id, packet.FlagSYN
	p.Size, p.Payload = 40, uint64(f.id)<<32|0x5359
	f.m.net.Inject(f.cfg.Src, p)
	// SYN retransmission with exponential backoff (3 s, 6 s, 12 s, ...).
	backoff := initialRTO << uint(f.Stats.SynRetries)
	f.armRTO(backoff, f.cbSYN)
}

func (f *Flow) armRTO(d time.Duration, cb sim.Callback) {
	f.rtoEvent.Cancel()
	f.rtoEvent = f.m.net.Scheduler().CallAfter(d, cb, nil, 0)
}

func (f *Flow) disarmRTO() {
	f.rtoEvent.Cancel()
	f.rtoEvent = sim.Handle{}
}

// receiverHandle processes packets arriving at the destination host.
func (f *Flow) receiverHandle(p *packet.Packet) {
	switch {
	case p.Flags.Has(packet.FlagSYN):
		// SYN → SYN|ACK.
		reply := f.m.net.NewPacket()
		reply.Dst, reply.Flow, reply.Flags = f.cfg.Src, f.id, packet.FlagSYN|packet.FlagACK
		reply.Size, reply.Payload = 40, uint64(f.id)<<32|0x53414b
		f.m.net.Inject(f.cfg.Dst, reply)
	case p.Flags == 0 || p.Flags.Has(packet.FlagFIN):
		// Data segment p.Seq.
		if p.Seq == f.rcvNxt {
			f.rcvNxt++
			for f.ooo[f.rcvNxt] {
				delete(f.ooo, f.rcvNxt)
				f.rcvNxt++
			}
		} else if p.Seq > f.rcvNxt {
			f.ooo[p.Seq] = true
		}
		f.Stats.Delivered = int(f.rcvNxt)
		f.Stats.LastDeliverAt = f.now()
		ack := f.m.net.NewPacket()
		ack.Dst, ack.Flow, ack.Flags = f.cfg.Src, f.id, packet.FlagACK
		ack.Ack, ack.Size = f.rcvNxt, 40
		ack.Payload = uint64(f.rcvNxt)<<8 | uint64(p.Seq&0xff)<<40
		f.m.net.Inject(f.cfg.Dst, ack)
	}
}

// senderHandle processes packets arriving back at the source host.
func (f *Flow) senderHandle(p *packet.Packet) {
	switch {
	case p.Flags.Has(packet.FlagSYN | packet.FlagACK):
		if f.state != StateSynSent {
			return
		}
		f.state = StateEstablished
		f.Stats.EstablishedAt = f.now()
		f.disarmRTO()
		f.rtoTimeoutRearm()
		f.pump()
	case p.Flags.Has(packet.FlagACK):
		f.handleAck(p.Ack)
	}
}

func (f *Flow) handleAck(ack uint32) {
	if f.state != StateEstablished {
		return
	}
	if ack > f.sndUna {
		// New data acknowledged.
		if t, ok := f.sendTime[ack-1]; ok {
			f.sampleRTT(f.now() - t)
		}
		for s := f.sndUna; s < ack; s++ {
			delete(f.inFlight, s)
			delete(f.sendTime, s)
		}
		f.sndUna = ack
		f.dupAcks = 0
		if f.cwnd < f.ssthresh {
			f.cwnd++ // slow start
		} else {
			f.cwnd += 1 / f.cwnd // congestion avoidance
		}
		f.rtoTimeoutRearm()
		f.pump()
	} else if ack == f.sndUna && f.outstanding() > 0 {
		f.dupAcks++
		if f.dupAcks == 3 {
			// Fast retransmit (Reno).
			f.Stats.FastRetx++
			f.ssthresh = math.Max(f.cwnd/2, 2)
			f.cwnd = f.ssthresh
			f.retransmit(f.sndUna)
			f.rtoTimeoutRearm()
		}
	}
}

func (f *Flow) sampleRTT(rtt time.Duration) {
	if f.srtt == 0 {
		f.srtt = rtt
		f.rttvar = rtt / 2
	} else {
		diff := f.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		f.rttvar = (3*f.rttvar + diff) / 4
		f.srtt = (7*f.srtt + rtt) / 8
	}
	f.rto = f.srtt + 4*f.rttvar
	if f.rto < minRTO {
		f.rto = minRTO
	}
}

func (f *Flow) outstanding() int { return int(f.sndNxt - f.sndUna) }

// pump sends data while the congestion window allows.
func (f *Flow) pump() {
	for f.state == StateEstablished && float64(f.outstanding()) < f.cwnd {
		if f.cfg.MaxPackets > 0 && int(f.sndNxt) >= f.cfg.MaxPackets {
			if f.outstanding() == 0 {
				f.state = StateDone
				f.disarmRTO()
			}
			return
		}
		f.sendData(f.sndNxt, false)
		f.sndNxt++
	}
}

func (f *Flow) sendData(seq uint32, isRetx bool) {
	p := f.m.net.NewPacket()
	p.Dst, p.Flow, p.Seq, p.Size = f.cfg.Dst, f.id, seq, mss
	p.Payload = uint64(f.id)<<32 | uint64(seq)
	if isRetx {
		f.Stats.Retransmits++
	} else {
		f.Stats.DataSent++
		if _, ok := f.sendTime[seq]; !ok {
			f.sendTime[seq] = f.now()
		}
	}
	if isRetx {
		// Karn's rule: never sample RTT from retransmitted segments.
		delete(f.sendTime, seq)
	}
	f.inFlight[seq] = true
	f.m.net.Inject(f.cfg.Src, p)
}

func (f *Flow) retransmit(seq uint32) { f.sendData(seq, true) }

func (f *Flow) rtoTimeoutRearm() {
	if f.outstanding() == 0 && !(f.cfg.MaxPackets == 0 || int(f.sndNxt) < f.cfg.MaxPackets) {
		f.disarmRTO()
		return
	}
	f.armRTO(f.rto, f.cbTimeout)
}

func (f *Flow) onTimeout() {
	if f.state != StateEstablished || f.outstanding() == 0 {
		return
	}
	f.Stats.Timeouts++
	f.ssthresh = math.Max(f.cwnd/2, 2)
	f.cwnd = 1
	f.dupAcks = 0
	f.rto *= 2
	if f.rto > 60*time.Second {
		f.rto = 60 * time.Second
	}
	f.retransmit(f.sndUna)
	f.armRTO(f.rto, f.cbTimeout)
}

// String summarizes the flow.
func (f *Flow) String() string {
	return fmt.Sprintf("flow %d %v->%v state=%d sent=%d retx=%d delivered=%d",
		f.id, f.cfg.Src, f.cfg.Dst, f.state, f.Stats.DataSent, f.Stats.Retransmits, f.Stats.Delivered)
}

// StartCBR starts a constant-bit-rate source of pktSize-byte packets at
// rate bits/s from src to dst between start and stop. It returns the flow
// ID so attacks can select it.
func (m *Manager) StartCBR(src, dst packet.NodeID, rate int64, pktSize int, start, stop time.Duration) packet.FlowID {
	m.nextFlow++
	id := m.nextFlow
	interval := time.Duration(int64(pktSize) * 8 * int64(time.Second) / rate)
	sched := m.net.Scheduler()
	var seq uint32
	var tick func()
	tick = func() {
		if sched.Now() >= stop {
			return
		}
		seq++
		p := m.net.NewPacket()
		p.Dst, p.Flow, p.Seq, p.Size = dst, id, seq, pktSize
		p.Payload = uint64(id)<<32 | uint64(seq)
		m.net.Inject(src, p)
		sched.After(interval, tick)
	}
	sched.After(start-sched.Now(), tick)
	return id
}

// StartPoisson starts a Poisson packet source with the given mean rate in
// packets/s.
func (m *Manager) StartPoisson(src, dst packet.NodeID, pps float64, pktSize int, start, stop time.Duration) packet.FlowID {
	m.nextFlow++
	id := m.nextFlow
	sched := m.net.Scheduler()
	var seq uint32
	var tick func()
	next := func() time.Duration {
		u := m.rng.Float64()
		if u <= 0 {
			u = 1e-12
		}
		return time.Duration(-math.Log(u) / pps * float64(time.Second))
	}
	tick = func() {
		if sched.Now() >= stop {
			return
		}
		seq++
		p := m.net.NewPacket()
		p.Dst, p.Flow, p.Seq, p.Size = dst, id, seq, pktSize
		p.Payload = uint64(id)<<32 | uint64(seq)
		m.net.Inject(src, p)
		sched.After(next(), tick)
	}
	sched.After(start-sched.Now(), tick)
	return id
}
