package netsim

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// TestReassemblyMatchesMapModel drives a receiver's handleData with shuffled
// sequence numbers, duplicates and go-back-N replays from the cumulative ACK,
// and checks every ACK it emits against a map[int]bool reassembly model (the
// set-and-drain loop the bitset replaced). Flows span up to twelve 64-bit
// words, so every in-word offset and word boundary of the bitset walk is hit.
func TestReassemblyMatchesMapModel(t *testing.T) {
	n, _ := twoHostNet(t, DefaultConfig())
	rcv := n.Hosts[1]
	for trial := 0; trial < 1000; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		pkts := 1 + rng.Intn(64*(1+trial%12))
		fl := &flow{id: int64(trial + 1), dst: 1, totalPkts: pkts}
		order := rng.Perm(pkts)
		if trial%2 == 0 { // mostly in order: reorder only within small windows
			for i := range order {
				order[i] = i
			}
			for i := 0; i+1 < pkts; i++ {
				if j := i + rng.Intn(min(8, pkts-i)); rng.Intn(3) == 0 {
					order[i], order[j] = order[j], order[i]
				}
			}
		}
		model, modelCum := map[int]bool{}, 0
		deliver := func(seq int) {
			pkt := &Packet{FlowID: fl.id, Src: 0, Dst: 1, Seq: seq, Bytes: 1500, flow: fl}
			rcv.handleData(pkt)
			model[seq] = true
			for model[modelCum] {
				delete(model, modelCum)
				modelCum++
			}
			if !pkt.IsAck || pkt.CumAck != modelCum || pkt.Src != 1 || pkt.Dst != 0 || pkt.flow != fl {
				t.Fatalf("trial %d (%d packets), seq %d: emitted %+v, want the ACK of cumulative %d",
					trial, pkts, seq, *pkt, modelCum)
			}
		}
		for _, seq := range order {
			deliver(seq)
			switch rng.Intn(8) {
			case 0:
				deliver(rng.Intn(pkts)) // duplicate
			case 1: // go-back-N: the sender re-sends from the cumulative ACK
				for seq, end := modelCum, min(pkts, modelCum+rng.Intn(150)); seq < end; seq++ {
					deliver(seq)
				}
			}
		}
		if modelCum != pkts {
			t.Fatalf("trial %d: cumulative ACK %d after all %d packets", trial, modelCum, pkts)
		}
	}
}

// TestRTOCountedGeneration: a flow's timers all use cfg.RTO and one key, so
// they fire in arm order and the k-th firing is the k-th arm. Only the last
// arm may retransmit — including when two arms share an instant (an ACK
// advance and a fast retransmit in one event), where they also share a due
// time and a priority and only the scheduling order separates them.
func TestRTOCountedGeneration(t *testing.T) {
	for _, later := range []bool{false, true} {
		cfg := DefaultConfig()
		n, sw := twoHostNet(t, cfg)
		var fl *flow
		sw.Forward = func(pkt *Packet) int { // blackhole: only injected ACKs come back
			fl = pkt.flow
			return -1
		}
		snd := n.Hosts[0]
		ack := func(cum int) {
			snd.Receive(&Packet{FlowID: fl.id, Src: 1, Dst: 0, CumAck: cum, IsAck: true, flow: fl}, 0)
		}
		n.StartFlow(0, 1, 64*int64(cfg.MTU), 0) // arm 1 at 0
		n.Sched.At(100*sim.Microsecond, func() {
			ack(1) // advance: arm 2
			for i := 0; i < cfg.DupAckThreshold; i++ {
				ack(1) // the last duplicate fast-retransmits: arm 3
			}
		})
		last, armed, fired := 100*sim.Microsecond+cfg.RTO, 3, 1
		if later {
			n.Sched.At(200*sim.Microsecond, func() { ack(2) }) // arm 4
			last, armed, fired = last+100*sim.Microsecond, 4, 3
		}
		n.Sched.RunUntil(last - 1)
		if rto, fast := snd.Retransmits(); rto != 0 || fast != 1 || fl.armed != armed || fl.fired != fired {
			t.Fatalf("later=%v, before the last arm is due: rto=%d fast=%d, %d of %d arms fired; want 0, 1, %d of %d",
				later, rto, fast, fl.fired, fl.armed, fired, armed)
		}
		n.Sched.RunUntil(last)
		if rto, _ := snd.Retransmits(); rto != 1 {
			t.Fatalf("later=%v: %d RTO retransmits when the last arm fired, want exactly 1", later, rto)
		}
	}
}
