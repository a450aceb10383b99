package netsim

// Event tie-break priorities.
//
// The scheduler orders simultaneous events by (pri, seq), seq being FIFO
// scheduling order. Every event the simulation schedules mid-run carries a
// priority derived from simulation content (a class in the high bits, an
// entity id in the low 32), so what runs first at an instant is decided by
// what the events are, not by which callback happened to schedule first:
//
//   - priRecv is keyed by the receiving port's global id. Two deliveries
//     to the same port can never share a timestamp because the final hop
//     serializes packets ≥ 1 ns apart.
//   - priTxFree is keyed by the transmitting port's global id; a port's
//     transmitter-free events are strictly increasing in time.
//   - priTimer and priStart are keyed by flow id (flow ids are assigned
//     sequentially and never reused; a flow's timers due at one instant
//     run in the order its host armed them, see armTimer).
//   - priTick is keyed by switch id; each switch has one metric tick per
//     instant.
//
// The class order is pinned by the serial goldens in internal/experiments
// and by the benchmark's sim_digest: reordering the classes reorders events.
// Priority 0 (plain At/After) is what tests and hooks schedule with, such
// as the fault tests' SetLinkDown/SetFailed events; it sorts before every
// keyed class, so a link or switch state change at an instant is seen by
// every packet event at that instant.
const (
	priStart  uint64 = (iota + 1) << 32 // flow starts, keyed by flow id
	priTimer                            // RTO expiries, keyed by flow id
	priTick                             // metric refresh ticks, keyed by switch id
	priTxFree                           // transmitter-free continuations, keyed by port gid
	priRecv                             // packet deliveries, keyed by receiving port gid
)

// key combines a priority class with an entity id in the low 32 bits.
func key(class uint64, id int) uint64 { return class | uint64(uint32(id)) }
