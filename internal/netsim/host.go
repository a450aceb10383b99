package netsim

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// Host is an end system with one NIC. It implements a window-based
// transport with slow start, AIMD congestion avoidance, fast retransmit on
// three duplicate ACKs, and a go-back-N retransmission timeout — a
// deliberately standard TCP-flavoured loop, since the experiments compare
// routing/load-balancing policies, not transports.
type Host struct {
	net *Network
	id  int
	nic *Port

	sending int       // flows this host started and has not completed
	spare   []*Packet // consumed ACKs, reused by sendData

	rtoRetx  uint64 // go-back-N retransmission timeouts fired
	fastRetx uint64 // fast retransmits triggered by duplicate ACKs
}

// Retransmits returns the host's cumulative retransmission counts: RTO
// firings (each re-sends the window go-back-N) and fast retransmits. The
// RTO regression tests use these to prove a completed flow's pending timer
// never fires a spurious retransmit.
func (h *Host) Retransmits() (rto, fast uint64) { return h.rtoRetx, h.fastRetx }

// ActiveSenders returns the number of flows this host is still sending.
func (h *Host) ActiveSenders() int { return h.sending }

// flow is one flow's transport state; the sending host creates it and every
// packet of the flow points to it. The sending host writes the sender half,
// the destination host the receiver half.
type flow struct {
	id        int64
	dst       int
	totalPkts int
	bytes     int64
	start     sim.Time
	lastSize  int // bytes of the final (possibly short) packet

	// Sender half.
	cumAck   int
	nextSeq  int
	cwnd     float64
	ssthresh float64
	dupAcks  int
	armed    int    // RTO timers armed so far
	fired    int    // RTO timers fired so far
	rto      func() // the flow's one timer callback
	done     bool

	// Receiver half: bit s of rcvd is set once Seq s has arrived.
	rcvd   []uint64
	rcvCum int
}

// ID returns the host id.
func (h *Host) ID() int { return h.id }

// NIC returns the host's port, or nil if unconnected.
func (h *Host) NIC() *Port { return h.nic }

func (h *Host) startSender(flowID int64, dst int, bytes int64, start sim.Time) {
	if h.nic == nil {
		panic(fmt.Sprintf("netsim: host %d has no NIC", h.id))
	}
	mtu := int64(h.net.cfg.MTU)
	pkts := int((bytes + mtu - 1) / mtu)
	if pkts == 0 {
		pkts = 1
	}
	last := int(bytes - int64(pkts-1)*mtu)
	if last <= 0 {
		last = h.net.cfg.MTU
	}
	fl := &flow{
		id:        flowID,
		dst:       dst,
		totalPkts: pkts,
		bytes:     bytes,
		start:     start,
		cwnd:      h.net.cfg.InitCwnd,
		ssthresh:  1 << 30,
		lastSize:  last,
	}
	fl.rto = func() { h.expire(fl) }
	h.sending++
	h.pump(fl)
	h.armTimer(fl)
}

// pump transmits while the window allows.
func (h *Host) pump(fl *flow) {
	for fl.nextSeq < fl.totalPkts && float64(fl.nextSeq-fl.cumAck) < fl.cwnd {
		h.sendData(fl, fl.nextSeq)
		fl.nextSeq++
	}
}

func (h *Host) sendData(fl *flow, seq int) {
	size := h.net.cfg.MTU
	if seq == fl.totalPkts-1 {
		size = fl.lastSize
	}
	if len(h.spare) == 0 {
		h.spare = append(h.spare, new(Packet))
	}
	pkt := h.spare[len(h.spare)-1]
	h.spare = h.spare[:len(h.spare)-1]
	*pkt = Packet{FlowID: fl.id, Src: h.id, Dst: fl.dst, Seq: seq, Bytes: size, flow: fl}
	h.nic.Send(pkt)
}

// armTimer (re)arms the flow's retransmission timeout. Only the newest arm
// may act: every ACK advance and every fast retransmit re-arms, and the final
// cumulative ACK marks the flow done, so a flow that completes (or
// fast-retransmits) just before its RTO expires never go-back-N-retransmits
// spuriously (TestHostNoSpuriousRTOAfterCompletion).
//
// The arms need no captured generation because they fire in the order they
// were armed: each is due at now + cfg.RTO under key(priTimer, flow id), so
// a later arm is due no earlier, with the same priority and a larger
// scheduling seq — and the scheduler orders by (at, pri, seq). The k-th
// firing is therefore the k-th arm, and it is current iff no arm followed.
// That counting breaks if a flow's timer is ever armed with another delay or
// another key.
func (h *Host) armTimer(fl *flow) {
	fl.armed++
	h.net.Sched.AfterPri(h.net.cfg.RTO, key(priTimer, int(fl.id)), fl.rto)
}

// expire is a firing of the flow's RTO timer.
func (h *Host) expire(fl *flow) {
	fl.fired++
	if fl.done || fl.fired != fl.armed {
		return // completed or superseded
	}
	h.rtoRetx++
	// Timeout: multiplicative decrease and go-back-N.
	fl.ssthresh = fl.cwnd / 2
	if fl.ssthresh < 2 {
		fl.ssthresh = 2
	}
	fl.cwnd = 1
	fl.dupAcks = 0
	fl.nextSeq = fl.cumAck
	h.pump(fl)
	h.armTimer(fl)
}

// Receive implements Node.
func (h *Host) Receive(pkt *Packet, _ int) {
	if pkt.flow == nil {
		panic(fmt.Sprintf("netsim: host %d received a packet of flow %d with no flow state", h.id, pkt.FlowID))
	}
	if pkt.IsAck {
		h.handleAck(pkt)
		return
	}
	h.handleData(pkt)
}

func (h *Host) handleData(pkt *Packet) {
	fl := pkt.flow
	if fl.rcvd == nil {
		fl.rcvd = make([]uint64, (fl.totalPkts+63)/64)
	}
	fl.rcvd[pkt.Seq/64] |= 1 << (pkt.Seq % 64)
	for w := fl.rcvCum / 64; w < len(fl.rcvd); w++ {
		off := fl.rcvCum % 64
		run := bits.TrailingZeros64(^(fl.rcvd[w] >> off))
		if fl.rcvCum += run; run < 64-off {
			break // the word has a gap
		}
	}
	*pkt = Packet{
		FlowID: fl.id, Src: h.id, Dst: pkt.Src,
		CumAck: fl.rcvCum, IsAck: true, Bytes: h.net.cfg.AckBytes, flow: fl,
	}
	h.nic.Send(pkt)
}

func (h *Host) handleAck(pkt *Packet) {
	fl, cumAck := pkt.flow, pkt.CumAck
	h.spare = append(h.spare, pkt)
	if fl.done {
		return // stale ACK after completion
	}
	if cumAck > fl.cumAck {
		advanced := cumAck - fl.cumAck
		fl.cumAck = cumAck
		fl.dupAcks = 0
		if fl.cwnd < fl.ssthresh {
			fl.cwnd += float64(advanced) // slow start
		} else {
			fl.cwnd += float64(advanced) / fl.cwnd // congestion avoidance
		}
		if fl.cumAck >= fl.totalPkts {
			fl.done = true
			h.sending--
			h.net.flowDone(FlowRecord{
				FlowID: fl.id, Src: h.id, Dst: fl.dst,
				Bytes: fl.bytes, Start: fl.start, End: h.net.Sched.Now(),
			})
			return
		}
		h.armTimer(fl)
		h.pump(fl)
		return
	}
	// Duplicate ACK.
	fl.dupAcks++
	if fl.dupAcks == h.net.cfg.DupAckThreshold {
		// Fast retransmit + simplified fast recovery.
		fl.ssthresh = fl.cwnd / 2
		if fl.ssthresh < 2 {
			fl.ssthresh = 2
		}
		fl.cwnd = fl.ssthresh
		h.fastRetx++
		h.sendData(fl, fl.cumAck)
		h.armTimer(fl)
	}
}
