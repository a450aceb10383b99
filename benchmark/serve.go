package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
)

// window is one run's clock: everything is ns since origin (the start of the
// warm-up); the measured window is [startNs, endNs), cut into equal slices.
type window struct {
	origin         time.Time
	startNs, endNs int64
	slices         int
}

func (w *window) now() int64 { return int64(time.Since(w.origin)) }

func (w *window) sleepUntil(ns int64) {
	if d := ns - w.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// sliceOf maps an instant to its slice, or -1 outside the window.
func (w *window) sliceOf(ns int64) int {
	if ns < w.startNs || ns >= w.endNs {
		return -1
	}
	return int((ns - w.startNs) * int64(w.slices) / (w.endNs - w.startNs))
}

// phases is one traced batch's ledger in ns: the six stamped phases and the
// residual that closes the ledger.
type phases struct {
	enqueue, wire, admit, ring, decide, reply, resid int32
}

// ledger splits one traced call. callNs is the generator-observed duration
// of the DecideTraced call, which is the batch latency. The stamped phases
// telescope from EnqueueNs to ReplyNs, so the residual is what the stamps
// do not cover: call entry before the first stamp and reply decoding after
// the last.
func ledger(ti *client.TraceInfo, callNs int64) phases {
	s := ti.Server
	p := phases{
		enqueue: int32(ti.SendNs - ti.EnqueueNs),
		wire:    int32(s.RecvNs - ti.SendNs),
		admit:   int32(s.AdmitNs - s.RecvNs),
		ring:    int32(s.StartNs - s.AdmitNs),
		decide:  int32(s.DoneNs - s.StartNs),
		reply:   int32(ti.ReplyNs - s.DoneNs),
	}
	p.resid = int32(callNs - (ti.ReplyNs - ti.EnqueueNs))
	return p
}

// sampleLog holds one generator goroutine's in-window samples in buffers
// sized and touched at set-up, so peak RSS does not depend on how many
// batches the system under test completes.
type sampleLog struct {
	lat     []uint32 // batch latency, ns
	slice   []uint16
	ph      []phases    // traced runs only
	spans   []batchSpan // traced runs only: the first spanKeep batches, whole
	n       int
	dropped int64
}

func newSampleLog(capacity int, traced bool) *sampleLog {
	s := &sampleLog{lat: make([]uint32, capacity), slice: make([]uint16, capacity)}
	clear(s.lat) // touch every page now
	clear(s.slice)
	if traced {
		s.ph = make([]phases, capacity)
		clear(s.ph)
		s.spans = make([]batchSpan, 0, spanKeep)
	}
	return s
}

func (s *sampleLog) add(latNs int64, slice int, ph phases) {
	if s.n == len(s.lat) {
		s.dropped++
		return
	}
	s.lat[s.n] = clampU32(latNs)
	s.slice[s.n] = uint16(slice)
	if s.ph != nil {
		s.ph[s.n] = ph
	}
	s.n++
}

func clampU32(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(ns)
}

// tally is one generator goroutine's outcome counts. done is read by the
// controller while the goroutine runs; the rest after it has stopped.
type tally struct {
	done atomic.Int64 // decisions completed and verified, all time
	_    [56]byte     // own cache line

	attempted, rejects, errs, wrong int64 // ops inside the window
	warmFail                        int64 // failures before the window
}

// note records one call of ops operations: err is its transport outcome,
// bad how many of its answers the oracle rejected.
func (t *tally) note(inWindow bool, ops int, err error, bad int) {
	failed := err != nil || bad != 0
	if !inWindow {
		if failed {
			t.warmFail++
		}
		return
	}
	t.attempted += int64(ops)
	switch {
	case err == nil:
		t.wrong += int64(bad)
	case errors.Is(err, client.ErrRejected):
		t.rejects += int64(ops)
	default:
		t.errs += int64(ops)
	}
}

// keyCursor walks one connection's key pool in consecutive batches.
type keyCursor struct {
	pool  []uint64
	batch int
	off   int
}

func (k *keyCursor) next() []uint64 {
	keys := k.pool[k.off : k.off+k.batch]
	if k.off += k.batch; k.off+k.batch > len(k.pool) {
		k.off = 0
	}
	return keys
}

// closedLoop keeps one batch in flight until stop: the next request leaves
// only after the previous reply is verified.
func closedLoop(cli *client.Client, keys keyCursor, or *oracle, win *window, log *sampleLog, tl *tally, stop *atomic.Bool) {
	outs := make([]uint16, keys.batch)
	var ids []int32
	var ti client.TraceInfo
	var tip *client.TraceInfo
	if log.ph != nil {
		tip = &ti
	}
	for !stop.Load() {
		k := keys.next()
		t0 := time.Now()
		var err error
		ids, err = cli.DecideTraced(k, outs, ids, tip)
		t1 := time.Now()
		// The latency stamp is taken; only now is the reply checked.
		sl := win.sliceOf(int64(t1.Sub(win.origin)))
		bad := 0
		if err == nil {
			bad = or.wrong(ids)
		}
		tl.note(sl >= 0, len(k), err, bad)
		if err != nil {
			if errors.Is(err, client.ErrClosed) {
				return
			}
			time.Sleep(100 * time.Microsecond)
			continue
		}
		tl.done.Add(int64(len(k) - bad))
		if sl >= 0 && bad == 0 { // a wrong answer is a failure, not a sample
			var ph phases
			if tip != nil && ti.ID != 0 {
				ph = ledger(tip, int64(t1.Sub(t0)))
				if len(log.spans) < cap(log.spans) {
					log.spans = append(log.spans, batchSpan{callStart: t0.UnixNano(), callEnd: t1.UnixNano(), ti: ti})
				}
			}
			log.add(int64(t1.Sub(t0)), sl, ph)
		}
	}
}

// controlLog is serve_churn's write connection, indexed by tick.
type controlLog struct {
	applyLat, lag []uint32 // ns from the intended send time
	swapLat       []int64  // ns round trip
	backlogMax    int
}

// controlLoop sends one Apply frame per tick on a fixed schedule, and a
// SwapPolicy every swapEvery ticks, alternating the two policies. It is open
// loop: a late frame's latency counts from when it was due.
func controlLoop(cli *client.Client, w *workloadSpec, ops [][]server.TableOp, win *window, cl *controlLog, tl *tally, pace *pacer) {
	tickNs := int64(w.ApplyEveryUs) * 1000
	swapEvery := w.SwapEveryMs * 1000 / w.ApplyEveryUs
	swapTo := []string{policyMinCPU, policyLB}
	swaps := 0
	var prevDone int64
	for t, frame := range ops {
		due := int64(t) * tickNs
		pace.until(win, due)
		// The connection carries one frame at a time, so a frame is ready
		// to go when it is due and its predecessor is answered; lateness
		// beyond that is the generator's.
		ready := due
		if prevDone > ready {
			ready = prevDone
		}
		cl.lag[t] = clampU32(win.now() - ready)
		in := due >= win.startNs && due < win.endNs
		if behind := int((win.now() - due) / tickNs); behind > cl.backlogMax {
			cl.backlogMax = behind
		}
		if t%swapEvery == swapEvery-1 {
			s0 := time.Now()
			err := cli.SwapPolicy(swapTo[swaps%2])
			swaps++
			tl.note(in, 1, err, 0)
			if in && err == nil {
				cl.swapLat = append(cl.swapLat, int64(time.Since(s0)))
			}
		}
		sts, err := cli.Apply(frame, dims)
		done := win.now()
		prevDone = done
		bad := 0
		for _, st := range sts {
			if st != server.StatusOK {
				bad++
			}
		}
		tl.note(in, len(frame), err, bad)
		if err == nil && bad == 0 {
			cl.applyLat[t] = clampU32(done - due)
		}
		if errors.Is(err, client.ErrClosed) {
			return
		}
	}
}

// snap is one controller reading at an end of the measured window.
type snap struct {
	t    int64 // ns since origin
	done int64
	use  usage
	wire wireSnap
}

// measured is everything one served window produced.
type measured struct {
	w          *workloadSpec
	start, end snap

	attempted, failed                  int64
	rejects, errs, wrong               int64
	warmFail, dropped                  int64
	reconnects, quarantines, serverRej int64

	lat   [][]float64 // batch latency, us, per slice
	ph    []phases    // every traced in-window batch
	spans []span      // the kept batches, expanded, for the Chrome trace

	// serve_churn's write connection.
	lagUs      []float64
	backlogMax int
	applyUs    [][]float64 // per slice
	swapUs     []float64

	mem0, mem1 runtime.MemStats
	be         *timedBackend
}

// serveSetup is one complete set-up of a served workload: inputs from the
// seed, the oracle, and the served stack with its table installed and its
// connections dialed. Building it is what setup_s times.
type serveSetup struct {
	in *inputs
	or *oracle
	h  *harness
}

func windowLens(windowSec float64) (warm, window int64) {
	window = int64(windowSec * 1e9)
	return int64(float64(window) * warmupShare), window
}

func setupServe(w *workloadSpec, seed int64, windowSec float64, traced bool) (*serveSetup, error) {
	warm, window := windowLens(windowSec)
	in := genInputs(w, seed, warm, window)
	or, err := newOracle(w, in.table)
	if err != nil {
		return nil, err
	}
	h, err := newHarness(w, in, traced)
	if err != nil {
		return nil, err
	}
	return &serveSetup{in: in, or: or, h: h}, nil
}

// runServe measures one served window on a fresh set-up: warm up, measure
// windowSec, stop, collect, and tear the stack down.
func runServe(w *workloadSpec, su *serveSetup, windowSec float64, traced bool) (*measured, error) {
	in, or, h := su.in, su.or, su.h
	defer h.close()
	if w.Procs != 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.Procs))
	}

	warmNs, windowNs := windowLens(windowSec)
	win := &window{startNs: warmNs, endNs: warmNs + windowNs, slices: max(1, int(windowSec/sliceSeconds))}
	m := &measured{w: w, be: h.be}

	// Sample buffers: room for three times the seed commit's fastest shape
	// (about 37k batches/s per connection on serve_wire).
	capacity := int(windowSec*120_000) + 1024

	var stop atomic.Bool
	var wg sync.WaitGroup
	var pace pacer // serve_churn's write generator
	var tallies []*tally
	newTally := func() *tally {
		t := &tally{}
		tallies = append(tallies, t)
		return t
	}
	var logs []*sampleLog
	for range h.clients {
		for g := 0; g < w.Inflight; g++ {
			logs = append(logs, newSampleLog(capacity, traced))
		}
	}
	var ctl *controlLog
	if w.Loop == loopChurn {
		ctl = &controlLog{applyLat: make([]uint32, len(in.applyOps)), lag: make([]uint32, len(in.applyOps))}
	}

	// Collect the set-up's garbage now, so that when the heap grows during
	// the window does not depend on how the set-up went.
	runtime.GC()
	// The clock starts here: schedules count from origin.
	win.origin = time.Now()
	for i, log := range logs {
		c, g := i/w.Inflight, i%w.Inflight
		keys := keyCursor{pool: in.keys[c], batch: w.Batch, off: g * (keyPoolLen / w.Inflight) / w.Batch * w.Batch}
		log, tl, cli := log, newTally(), h.clients[c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			closedLoop(cli, keys, or, win, log, tl, &stop)
		}()
	}
	if ctl != nil {
		tl := newTally()
		wg.Add(1)
		go func() {
			defer wg.Done()
			controlLoop(h.control, w, in.applyOps, win, ctl, tl, &pace)
		}()
	}

	take := func() snap {
		s := snap{t: win.now(), use: readUsage()}
		s.use.cpuNs -= int64(pace.spun()) // the generator's wait is not the stack's cost
		for _, t := range tallies {
			s.done += t.done.Load()
		}
		if h.wire != nil {
			s.wire = h.wire.snap()
		}
		return s
	}
	win.sleepUntil(win.startNs)
	if traced {
		runtime.ReadMemStats(&m.mem0)
		h.be.record(true)
	}
	m.start = take()
	win.sleepUntil(win.endNs)
	m.end = take()
	if traced {
		h.be.record(false)
		runtime.ReadMemStats(&m.mem1)
	}
	stop.Store(true)
	wg.Wait()

	m.reconnects = h.reconnects()
	m.quarantines = h.counter("thanos_engine_shards_quarantined_total")
	m.serverRej = h.counter("thanos_server_rejects_total")
	for _, t := range tallies {
		m.attempted += t.attempted
		m.rejects += t.rejects
		m.errs += t.errs
		m.wrong += t.wrong
		m.warmFail += t.warmFail
	}
	m.failed = m.rejects + m.errs + m.wrong
	m.collectClosed(logs, win.slices)
	m.collectControl(ctl, w, win)
	return m, nil
}

func (m *measured) collectClosed(logs []*sampleLog, slices int) {
	m.lat = make([][]float64, slices)
	for _, log := range logs {
		m.dropped += log.dropped
		for i := 0; i < log.n; i++ {
			sl := log.slice[i]
			m.lat[sl] = append(m.lat[sl], float64(log.lat[i])/1e3)
		}
		if log.ph != nil {
			m.ph = append(m.ph, log.ph[:log.n]...)
		}
	}
	for gen, log := range logs {
		for i := range log.spans {
			m.spans = append(m.spans, log.spans[i].spansOf(gen)...)
		}
	}
}

func (m *measured) collectControl(ctl *controlLog, w *workloadSpec, win *window) {
	if ctl == nil {
		return
	}
	m.backlogMax = ctl.backlogMax
	m.applyUs = make([][]float64, win.slices)
	tickNs := int64(w.ApplyEveryUs) * 1000
	for t, lat := range ctl.applyLat {
		sl := win.sliceOf(int64(t) * tickNs)
		if sl < 0 {
			continue
		}
		m.lagUs = append(m.lagUs, float64(ctl.lag[t])/1e3)
		if lat != 0 {
			m.applyUs[sl] = append(m.applyUs[sl], float64(lat)/1e3)
		}
	}
	m.swapUs = floats(ctl.swapLat, 1e3)
}

// decisions is the verified decisions completed inside the measured window.
func (m *measured) decisions() float64 { return float64(m.end.done - m.start.done) }

// rates returns decisions/s, CPU us/decision and context switches per batch,
// each over the whole measured window: everything the window cost, table
// writes, policy swaps, GC cycles and the box's stalls included.
func (m *measured) rates() (decPerS, cpuUsPerDec, ctxPerBatch float64) {
	a, b, dec := m.start, m.end, m.decisions()
	if dec <= 0 {
		return 0, 0, 0 // check() marks the run invalid
	}
	return dec / (float64(b.t-a.t) / 1e9),
		float64(b.use.cpuNs-a.use.cpuNs) / 1e3 / dec,
		float64(b.use.ctxSw-a.use.ctxSw) / (dec / float64(m.w.Batch))
}

// check lists what makes this window unfit to report.
func (m *measured) check() []string {
	var bad []string
	if m.decisions() <= 0 {
		bad = append(bad, "no decision completed inside the window")
	}
	if m.warmFail != 0 {
		bad = append(bad, fmt.Sprintf("warm-up saw %d failed calls", m.warmFail))
	}
	if m.reconnects != 0 {
		bad = append(bad, fmt.Sprintf("%d client reconnects", m.reconnects))
	}
	if m.quarantines != 0 {
		bad = append(bad, fmt.Sprintf("%d shard quarantines", m.quarantines))
	}
	if m.dropped != 0 {
		bad = append(bad, fmt.Sprintf("sample buffer overflowed by %d batches", m.dropped))
	}
	if len(m.lagUs) > 0 {
		if lag := median(m.lagUs); lag > float64(m.w.LagLimitUs) {
			bad = append(bad, fmt.Sprintf("generator lag p50 %.0f us exceeds %d us", lag, m.w.LagLimitUs))
		}
	}
	return bad
}
