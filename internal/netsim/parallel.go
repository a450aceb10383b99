package netsim

// Conservative parallel discrete-event driver (the ROADMAP's "scale netsim
// 10–100×" item). The topology is partitioned into logical processes
// (LPs), each owning a disjoint set of switches and hosts and running its
// own sim.Scheduler; a single-threaded coordinator advances all LPs in
// lockstep barrier windows no wider than the smallest inter-LP link
// propagation delay (the lookahead). A packet that crosses an LP boundary
// is appended to its link's ordered mailbox by the sending LP and put on
// the receiving port's wire (Port.arrive, the same call a local delivery
// makes) by the receiving LP at the next barrier; the lookahead bound
// guarantees its arrival time is never inside the window that produced it,
// so no LP ever receives an event in its past.
//
// Determinism: at equal seeds the parallel run is bit-identical to the
// serial run. Every mid-run event carries a content-derived priority (see
// pri.go) that is unique within its (timestamp, LP), so each LP executes
// exactly the (time, priority)-sorted subsequence of the serial run's
// events that touch its entities — scheduling interleavings, mailbox
// injection order, and goroutine timing can never reorder anything
// observable. The one global artifact, the completed-flow record order, is
// reconstructed exactly by a deterministic k-way merge (records).
//
// Memory model: mailboxes are double-buffered single-producer/
// single-consumer slices with no locks. The sending LP appends to pending
// during a window; the coordinator swaps pending/ready between windows
// while every LP goroutine is parked at the barrier; the receiving LP
// drains ready at the start of the next window. All cross-thread handoffs
// are ordered by the window/done channel operations, so the driver is
// race-clean by happens-before, not by luck (the identity tests run under
// -race at GOMAXPROCS=1 and 4).

import (
	"fmt"
	"sync"

	"repro/internal/sim"
)

// Partition assigns every switch and host to a logical process. Topology
// builders provide pod-aware partitions (e.g. topology.FatTree.Partition);
// any assignment is legal, but lookahead — and therefore speedup — comes
// from cutting the topology only across links with large propagation
// delay, and from co-locating each host with its edge switch.
type Partition struct {
	NumLPs   int
	SwitchLP []int // switch id → LP
	HostLP   []int // host id → LP
}

// Validate checks the partition against a network's shape.
func (pt Partition) Validate(n *Network) error {
	if pt.NumLPs < 1 {
		return fmt.Errorf("netsim: partition needs ≥1 LP, got %d", pt.NumLPs)
	}
	if len(pt.SwitchLP) != len(n.Switches) || len(pt.HostLP) != len(n.Hosts) {
		return fmt.Errorf("netsim: partition covers %d switches / %d hosts, network has %d / %d",
			len(pt.SwitchLP), len(pt.HostLP), len(n.Switches), len(n.Hosts))
	}
	for i, l := range pt.SwitchLP {
		if l < 0 || l >= pt.NumLPs {
			return fmt.Errorf("netsim: switch %d assigned to LP %d, out of range [0,%d)", i, l, pt.NumLPs)
		}
	}
	for i, l := range pt.HostLP {
		if l < 0 || l >= pt.NumLPs {
			return fmt.Errorf("netsim: host %d assigned to LP %d, out of range [0,%d)", i, l, pt.NumLPs)
		}
	}
	return nil
}

// arrivalEvent is one cross-LP packet in flight: it arrives at the
// mailbox's destination port at time at.
type arrivalEvent struct {
	pkt *Packet
	at  sim.Time
}

// mailbox is the ordered handoff buffer of one directed inter-LP link.
// Exactly one LP writes pending (the sender) and exactly one LP reads
// ready (the receiver); the coordinator swaps the two between windows.
type mailbox struct {
	dst     *Port // receiving port (its owner gets Receive)
	pending []arrivalEvent
	ready   []arrivalEvent
}

// lp is one logical process: a scheduler plus the completion sink for the
// hosts it owns. Only its own goroutine touches sched and the sink fields
// during a window; the coordinator reads them between windows.
type lp struct {
	id        int
	sched     *sim.Scheduler
	inboxes   []*mailbox // mailboxes whose dst port this LP owns
	completed int
	fcts      []FlowRecord

	window chan sim.Time // coordinator → LP: run one window ending here
}

// loop is the LP goroutine: drain inboxes, run the window, report done —
// until quit closes (the shutdown edge from Parallel.Close).
func (l *lp) loop(quit <-chan struct{}, done chan<- struct{}) {
	for {
		select {
		case end := <-l.window:
			for _, m := range l.inboxes {
				for i, a := range m.ready {
					m.dst.arrive(a.pkt, a.at)
					m.ready[i].pkt = nil // release for GC
				}
				m.ready = m.ready[:0]
			}
			l.sched.RunWindow(end)
			done <- struct{}{}
		case <-quit:
			return
		}
	}
}

// Parallel drives a partitioned network. Construct with NewParallel after
// building the topology and before scheduling any flows or faults; drive
// with RunUntil/RunUntilDone from a single goroutine; Close joins the LP
// goroutines. The coordinator owns all cross-LP state between windows, so
// StartFlow, ActiveFlows and Records are safe exactly when no window is in
// flight.
type Parallel struct {
	net       *Network
	lps       []*lp
	mailboxes []*mailbox
	window    sim.Time // lookahead: min inter-LP propagation delay; 0 = no inter-LP links
	now       sim.Time // barrier time: every LP's scheduler sits here between windows
	quit      chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup
	closed    bool
}

// NewParallel partitions an already-built network into LPs and takes over
// its execution. It must be called before any flows are started or faults
// armed: events already sitting on Network.Sched would otherwise be
// stranded there (the constructor rejects that). Per-LP schedulers get
// independent RNG streams derived from the network seed and the LP id.
func NewParallel(n *Network, pt Partition) (*Parallel, error) {
	if n.par != nil {
		return nil, fmt.Errorf("netsim: network already has a parallel driver")
	}
	if err := pt.Validate(n); err != nil {
		return nil, err
	}
	if n.Sched.Pending() != 0 || n.active != 0 {
		return nil, fmt.Errorf("netsim: NewParallel must run before flows or faults are scheduled (%d events pending, %d flows active)",
			n.Sched.Pending(), n.active)
	}
	p := &Parallel{
		net:  n,
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i := 0; i < pt.NumLPs; i++ {
		p.lps = append(p.lps, &lp{
			id:     i,
			sched:  sim.New(lpSeed(n.seed, i)),
			window: make(chan sim.Time),
		})
	}

	// Rehome every entity onto its LP's scheduler.
	for i, sw := range n.Switches {
		l := p.lps[pt.SwitchLP[i]]
		sw.sched = l.sched
		for _, port := range sw.ports {
			port.sched, port.lp = l.sched, l
		}
	}
	for i, h := range n.Hosts {
		l := p.lps[pt.HostLP[i]]
		h.sched, h.lp = l.sched, l
		if h.nic != nil {
			h.nic.sched, h.nic.lp = l.sched, l
		}
	}

	// Build one mailbox per directed inter-LP link and derive the
	// lookahead window from the smallest inter-LP propagation delay.
	addMailbox := func(port *Port) {
		if port.peer == nil || port.peer.lp == port.lp {
			return
		}
		m := &mailbox{dst: port.peer}
		port.mbox = m
		port.peer.lp.inboxes = append(port.peer.lp.inboxes, m)
		p.mailboxes = append(p.mailboxes, m)
		if p.window == 0 || port.propDelay < p.window {
			p.window = port.propDelay
		}
	}
	for _, sw := range n.Switches {
		for _, port := range sw.ports {
			addMailbox(port)
		}
	}
	for _, h := range n.Hosts {
		if h.nic != nil {
			addMailbox(h.nic)
		}
	}

	for _, l := range p.lps {
		l := l
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			l.loop(p.quit, p.done)
		}()
	}
	n.par = p
	return p, nil
}

// lpSeed derives an LP's RNG seed from the network seed and the LP id
// (splitmix64-style finalizer, so nearby seeds and ids decorrelate).
func lpSeed(seed int64, lpID int) int64 {
	x := uint64(seed) ^ (uint64(lpID)+1)*0x9E3779B97F4A7C15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int64(x)
}

// Window returns the lookahead window width (0 if the partition has no
// inter-LP links and windows are unbounded).
func (p *Parallel) Window() sim.Time { return p.window }

// Now returns the barrier time: every LP has executed all its events
// strictly before Now.
func (p *Parallel) Now() sim.Time { return p.now }

// step runs one window [p.now, end) on every LP concurrently, then swaps
// the mailboxes while all LPs are parked.
func (p *Parallel) step(end sim.Time) {
	if p.closed {
		panic("netsim: Parallel used after Close")
	}
	for _, l := range p.lps {
		l.window <- end
	}
	for range p.lps {
		<-p.done
	}
	for _, m := range p.mailboxes {
		m.ready, m.pending = m.pending, m.ready[:0]
	}
	p.now = end
}

// RunUntil executes all events with timestamps ≤ deadline, the parallel
// equivalent of Network.Sched.RunUntil. LP clocks finish at deadline+1
// (the exclusive end of the final window) rather than exactly at deadline;
// observable simulation state is unaffected.
func (p *Parallel) RunUntil(deadline sim.Time) {
	for p.now <= deadline {
		end := deadline + 1
		if p.window > 0 && p.now+p.window < end {
			end = p.now + p.window
		}
		p.step(end)
	}
}

// RunUntilDone advances windows until every started flow has completed,
// returning the barrier time reached. It fails if flows remain beyond
// maxTime rather than spinning forever.
func (p *Parallel) RunUntilDone(maxTime sim.Time) (sim.Time, error) {
	for p.activeFlows() > 0 {
		if p.now > maxTime {
			return p.now, fmt.Errorf("netsim: %d flows did not complete by %v", p.activeFlows(), maxTime)
		}
		end := maxTime + 1
		if p.window > 0 {
			end = p.now + p.window
		}
		p.step(end)
	}
	return p.now, nil
}

// Stop latches every LP's scheduler stopped (callable between windows);
// subsequent windows execute nothing until Resume.
func (p *Parallel) Stop() {
	for _, l := range p.lps {
		l.sched.Stop()
	}
}

// Resume clears every LP scheduler's stop latch.
func (p *Parallel) Resume() {
	for _, l := range p.lps {
		l.sched.Resume()
	}
}

// Close shuts down the LP goroutines and joins them. The network's state
// remains readable afterwards; running further windows panics.
func (p *Parallel) Close() {
	if p.closed {
		return
	}
	p.closed = true
	close(p.quit)
	p.wg.Wait()
}

// activeFlows is started-minus-completed as of the last barrier.
func (p *Parallel) activeFlows() int {
	done := 0
	for _, l := range p.lps {
		done += l.completed
	}
	return p.net.active - done
}

// records merges the per-LP completion lists into the serial driver's
// append order. Within an LP the list is already sorted by (End, sender
// NIC gid): completions happen inside final-ACK delivery events, whose
// priority is keyed by the sender's NIC gid. The serial driver executes
// those same events in exactly that global order, so a stable k-way merge
// on (End, sender NIC gid) reproduces its Records slice bit-for-bit.
func (p *Parallel) records() []FlowRecord {
	total := 0
	for _, l := range p.lps {
		total += len(l.fcts)
	}
	out := make([]FlowRecord, 0, total)
	idx := make([]int, len(p.lps))
	for len(out) < total {
		best := -1
		for i, l := range p.lps {
			if idx[i] >= len(l.fcts) {
				continue
			}
			if best < 0 || p.recordLess(l.fcts[idx[i]], p.lps[best].fcts[idx[best]]) {
				best = i
			}
		}
		out = append(out, p.lps[best].fcts[idx[best]])
		idx[best]++
	}
	return out
}

func (p *Parallel) recordLess(a, b FlowRecord) bool {
	if a.End != b.End {
		return a.End < b.End
	}
	return p.net.Hosts[a.Src].nic.gid < p.net.Hosts[b.Src].nic.gid
}
