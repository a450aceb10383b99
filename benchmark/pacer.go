package main

import (
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// pacer busy-waits for serve_churn's next write time. Every microsecond of
// lateness is charged to an Apply frame, because its latency counts from the
// intended send time, and beside a closed loop that saturates the process
// nothing that yields is sharp enough. Measured on the reference box (p50 lag
// behind the 2 ms schedule): a Go timer 9 ms, because it waits for a P to
// look at its timers; a timerfd read through the netpoller a whole tick,
// because nobody polls in time; a busy wait under a microsecond, at the price
// of the P the one decide connection leaves free, as a generator pinned to
// its own core would. The CPU time the wait burns is measured on the waiting
// thread's own CPU clock and taken out of the process's CPU time, so
// cpu_us_per_op still shows the stack's cost.
type pacer struct {
	spinNs atomic.Int64
}

// until waits until the window clock reaches ns, and returns at once when
// that time has passed, so a late generator catches up.
func (p *pacer) until(w *window, ns int64) {
	start := w.now()
	if start >= ns {
		return
	}
	tid, cpu := threadCPU()
	now := start
	for now < ns {
		now = w.now()
	}
	// The wait never yields, so it nearly always ends on the thread it began
	// on and that thread's CPU clock has the cost; wall time would also count
	// the hypervisor's stalls. After a rare preemption that moved the
	// goroutine, wall time is the best estimate left.
	if tid2, cpu2 := threadCPU(); tid2 == tid && tid != 0 {
		p.spinNs.Add(cpu2 - cpu)
	} else {
		p.spinNs.Add(now - start)
	}
}

// spun is the CPU time burnt busy-waiting so far.
func (p *pacer) spun() time.Duration { return time.Duration(p.spinNs.Load()) }

// threadCPU returns the calling thread's id and its CPU clock in ns. The
// goroutine can be moved to another thread between any two system calls, so
// the clock is only believed when the thread id reads the same on both sides
// of it; a mismatched pair would subtract one thread's clock from another's.
func threadCPU() (tid uintptr, ns int64) {
	const clockThreadCPUTimeID = 3
	for try := 0; try < 4; try++ {
		var ts syscall.Timespec
		before, _, _ := syscall.Syscall(syscall.SYS_GETTID, 0, 0, 0)
		_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
		after, _, _ := syscall.Syscall(syscall.SYS_GETTID, 0, 0, 0)
		if errno == 0 && before == after {
			return before, ts.Nano()
		}
	}
	return 0, 0
}
