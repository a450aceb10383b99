package netsim

// Event tie-break priorities: the determinism contract between the serial
// and parallel drivers.
//
// The scheduler orders simultaneous events by (pri, seq), and seq — FIFO
// scheduling order — is the one quantity the parallel driver cannot
// reproduce: a logical process (LP) schedules only its own events, so the
// global interleaving of scheduling calls differs from the serial run even
// when the simulated content is identical. Bit-identical results therefore
// require that FIFO order never decides anything: every event the
// simulation schedules mid-run carries a priority derived from simulation
// content (a class in the high bits, an entity id in the low 32), and
// within one (timestamp, LP) pair every live event's priority is unique:
//
//   - priRecv is keyed by the receiving port's global id. Two deliveries
//     to the same port can never share a timestamp because the final hop
//     serializes packets ≥ 1 ns apart.
//   - priTxFree is keyed by the transmitting port's global id; a port's
//     transmitter-free events are strictly increasing in time.
//   - priTimer and priStart are keyed by flow id (flow ids are assigned
//     sequentially and never reused; a flow's timers due at one instant
//     run in the order its host armed them, see armTimer). Uniqueness
//     assumes < 2³² concurrent flow ids, far beyond any workload here.
//   - priTick is keyed by switch id; each switch has one metric tick per
//     instant.
//   - priFault* and priCtl events are armed before the run in identical
//     program order by both drivers, keyed by port/switch id or an arming
//     sequence number.
//
// Class order is load-bearing: fault flips and control-plane updates sort
// before any same-instant traffic event, so a packet arriving at the exact
// moment of a failure observes the post-fault state in both drivers —
// which is also what makes the per-side fault expansion (see faultarm.go)
// behave atomically even though the two ends of a link flip in different
// LPs. Priority 0 (plain At/After) is reserved for legacy callers (the
// serial-only fault.Injector and ControlChannel paths); it sorts before
// every keyed class, matching the historical behavior where pre-run
// scheduled fault events ran first at their instant.
const (
	priFaultSwitch uint64 = (iota + 1) << 32 // switch failed-flag flips, keyed by switch id
	priFaultLink                             // per-side link up/down flips, keyed by port gid
	priCtl                                   // control-plane updates, keyed by arming seqno
	priStart                                 // flow starts, keyed by flow id
	priTimer                                 // RTO expiries, keyed by flow id
	priTick                                  // metric refresh ticks, keyed by switch id
	priTxFree                                // transmitter-free continuations, keyed by port gid
	priRecv                                  // packet deliveries, keyed by receiving port gid
)

// key combines a priority class with an entity id in the low 32 bits.
func key(class uint64, id int) uint64 { return class | uint64(uint32(id)) }
