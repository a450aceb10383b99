package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/netsim"
	"repro/internal/policy"
)

// runWorkload runs one workload once: an untraced run yields the end-to-end
// metrics, a traced run the per-layer ledger.
func runWorkload(w *workloadSpec, seed int64, seconds float64, traced bool) (*runResult, error) {
	r := &runResult{
		Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced,
		Metrics: map[string]metricValue{}, Env: readEnv(),
	}
	var err error
	switch {
	case w.Loop == loopSim && traced:
		err = simTraced(w, r)
	case w.Loop == loopSim:
		err = simUntraced(w, r)
	case traced:
		err = serveTraced(w, r)
	default:
		err = serveUntraced(w, r)
	}
	if err != nil {
		return nil, err
	}
	if !traced {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		r.set("peak_rss_mb", rss, 1)
	}
	r.Valid = len(r.Invalid) == 0
	return r, nil
}

// repeatSetup times setupRepeats complete set-ups and returns the fastest in
// seconds and the last set-up, which the run then uses. release is called on
// every set-up but the last.
//
// The fastest, and only here: every set-up does the same work in full, so no
// cost of the code can hide above the fastest one; what sits there is the box.
// A set-up is tens of goroutine and thread wake-ups, the same work takes 4 to
// 25 ms depending on whether the vCPUs were awake, and over ten runs of
// unchanged code the median of 25 to 100 set-ups spread 13-70 %, their lower
// quartile 12-70 %. The driver holds the median of ten runs to 25 % between
// two sets. Work moved into set-up raises the fastest set-up as it raises any.
func repeatSetup[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		su, err := build()
		if err != nil {
			return last, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			release(su)
			// Collect the discarded set-up now, outside any timing, so its
			// garbage does not decide when the heap grows during the run.
			runtime.GC()
		}
		last = su
	}
	return last, minOf(secs), nil
}

func serveUntraced(w *workloadSpec, r *runResult) error {
	su, setupS, err := repeatSetup(
		func() (*serveSetup, error) { return setupServe(w, r.Seed, r.Seconds, false) },
		func(su *serveSetup) { su.h.close() })
	if err != nil {
		return err
	}
	r.set("setup_s", setupS, setupRepeats)
	r.InputDigest = su.in.digest()
	m, err := runServe(w, su, r.Seconds, false)
	if err != nil {
		return err
	}
	serveEndToEnd(m, r)
	return nil
}

// serveEndToEnd fills the end-to-end metrics of one served window.
func serveEndToEnd(m *measured, r *runResult) {
	r.Attempted, r.Failed = m.attempted, m.failed
	r.Invalid = append(r.Invalid, m.check()...)
	dec, cpu, _ := m.rates()
	r.set("decisions_per_s", dec, int(m.decisions()))
	r.set("cpu_us_per_op", cpu, int(m.decisions()))
	r.setPctl("step_p50_us", m.lat, 0.50)
	r.setPctl("step_p90_us", m.lat, 0.90)
	r.setPctl("step_p99_us", m.lat, 0.99)
	if m.w.Loop == loopChurn {
		r.setPctl("apply_p50_us", m.applyUs, 0.50)
	}
	ratio := 0.0
	if m.attempted > 0 {
		ratio = float64(m.failed) / float64(m.attempted)
	} else {
		r.invalid("nothing attempted")
	}
	r.set("failed_ratio", ratio, int(m.attempted))
}

func serveTraced(w *workloadSpec, r *runResult) error {
	// The untraced window inside a traced run is the overhead base: same
	// process, same box state, minutes apart from nothing.
	plainSec, tracedSec := r.Seconds*plainShare, r.Seconds*tracedShare
	su, err := setupServe(w, r.Seed, plainSec, false)
	if err != nil {
		return err
	}
	plain, err := runServe(w, su, plainSec, false)
	if err != nil {
		return err
	}
	su, err = setupServe(w, r.Seed, tracedSec, true)
	if err != nil {
		return err
	}
	r.InputDigest = su.in.digest()
	in := su.in
	m, err := runServe(w, su, tracedSec, true)
	if err != nil {
		return err
	}
	r.Attempted, r.Failed = m.attempted+plain.attempted, m.failed+plain.failed
	r.Invalid = append(r.Invalid, m.check()...)

	plainDec, plainCPU, _ := plain.rates()
	tracedDec, _, ctx := m.rates()
	batches := int(m.decisions()) / w.Batch
	r.set("untraced.decisions_per_s", plainDec, int(plain.decisions()))
	r.set("untraced.cpu_us_per_op", plainCPU, int(plain.decisions()))
	r.setPctl("untraced.step_p99_us", plain.lat, 0.99)
	r.set("trace.overhead_ratio", plainDec/tracedDec, batches)
	r.set("runtime.ctx_switches_per_batch", ctx, batches)
	serveLedger(m, r)
	serveCounts(m, r)
	if err := servePasses(w, in, r); err != nil {
		return err
	}
	return writeChromeTrace(filepath.Join(scratchDir, w.Name+".trace.json"), m.spans)
}

// serveLedger reports each stamped phase over the whole traced window (the
// phases are shares of one another, so they come from the same batches) and
// checks that the ledger closes.
func serveLedger(m *measured, r *runResult) {
	n := len(m.ph)
	col := func(f func(*phases) int32) [][]float64 {
		v := make([]float64, n)
		for i := range m.ph {
			v[i] = float64(f(&m.ph[i])) / 1e3
		}
		return [][]float64{v}
	}
	enqueue := col(func(p *phases) int32 { return p.enqueue })
	wire := col(func(p *phases) int32 { return p.wire })
	ring := col(func(p *phases) int32 { return p.ring })
	decide := col(func(p *phases) int32 { return p.decide })
	reply := col(func(p *phases) int32 { return p.reply })
	r.setPctl("serve.traced_batch_us_p50", col(func(p *phases) int32 {
		return p.enqueue + p.wire + p.admit + p.ring + p.decide + p.reply + p.resid
	}), 0.50)
	r.setPctl("client.enqueue_us_p50", enqueue, 0.50)
	r.setPctl("client.enqueue_us_p99", enqueue, 0.99)
	r.setPctl("wire.request_us_p50", wire, 0.50)
	r.setPctl("wire.request_us_p99", wire, 0.99)
	r.setPctl("server.admit_us_p50", col(func(p *phases) int32 { return p.admit }), 0.50)
	r.setPctl("server.ring_wait_us_p50", ring, 0.50)
	r.setPctl("server.ring_wait_us_p99", ring, 0.99)
	r.setPctl("engine.decide_us_p50", decide, 0.50)
	r.setPctl("engine.decide_us_p99", decide, 0.99)
	r.setPctl("server.reply_us_p50", reply, 0.50)
	r.setPctl("server.reply_us_p99", reply, 0.99)
	r.setPctl("serve.residual_us_p50", col(func(p *phases) int32 { return p.resid }), 0.50)
	r.setPctl("engine.backend_decide_us_p50", [][]float64{floats(m.be.decide.values(), 1e3)}, 0.50)

	batch := r.Metrics["serve.traced_batch_us_p50"].Value
	if batch > 0 {
		r.set("engine.decide_share", r.Metrics["engine.decide_us_p50"].Value/batch, n)
		if resid := r.Metrics["serve.residual_us_p50"].Value; resid > 0.10*batch {
			r.invalid("ledger does not close: residual p50 %.2f us is over 10 %% of batch p50 %.2f us", resid, batch)
		}
	}
}

// serveCounts reports the counts taken at the same boundaries as the spans.
func serveCounts(m *measured, r *runResult) {
	w := m.w
	a, b, dec := m.start, m.end, m.decisions()
	batches := dec / float64(w.Batch)
	if dec > 0 {
		r.set("wire.bytes_per_decision", float64(b.wire.bytes-a.wire.bytes)/dec, int(batches))
		r.set("wire.syscalls_per_batch", float64(b.wire.reads-a.wire.reads+b.wire.writes-a.wire.writes)/batches, int(batches))
		r.set("runtime.allocs_per_decision", float64(m.mem1.Mallocs-m.mem0.Mallocs)/dec, int(dec))
	}
	r.set("runtime.gc_pause_ms", float64(m.mem1.PauseTotalNs-m.mem0.PauseTotalNs)/1e6, int(m.mem1.NumGC-m.mem0.NumGC))
	r.set("runtime.gc_cycles", float64(m.mem1.NumGC-m.mem0.NumGC), 1)
	r.set("server.rejects", float64(m.serverRej), 1)
	r.set("client.reconnects", float64(m.reconnects), 1)

	if len(m.lagUs) > 0 {
		r.setPctl("gen.sched_lag_us_p50", [][]float64{m.lagUs}, 0.50)
		r.setPctl("gen.sched_lag_us_p99", [][]float64{m.lagUs}, 0.99)
		r.set("gen.backlog_max", float64(m.backlogMax), 1)
	}
	if w.Loop == loopChurn {
		r.setPctl("server.apply_us_p50", m.applyUs, 0.50)
		r.setPctl("server.apply_us_p99", m.applyUs, 0.99)
		r.setPctl("server.swap_us_p50", [][]float64{m.swapUs}, 0.50)
		r.setPctl("engine.swap_us_p50", [][]float64{floats(m.be.swap.values(), 1e3)}, 0.50)
		r.setPctl("engine.apply_ns_per_op", [][]float64{floats(m.be.upsert.values(), 1)}, 0.50)
	}
}

// servePasses runs the isolated layer passes on the workload's own inputs.
func servePasses(w *workloadSpec, in *inputs, r *runResult) error {
	if w.Procs != 0 { // the passes run as the window did
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.Procs))
	}
	codecNs, codecAllocs, err := codecPass(in.keys[0], w.Batch)
	if err != nil {
		return err
	}
	r.set("wire.codec_ns_per_decision", codecNs, scaled(codecIters))
	r.set("wire.codec_allocs_per_batch", codecAllocs, scaled(codecIters))
	direct, err := enginePass(w, in)
	if err != nil {
		return fmt.Errorf("engine pass: %w", err)
	}
	r.set("engine.direct_ns_per_decision", direct, scaled(directIters))
	interp, err := interpPass(w.Policy, serveSchema, in.table)
	if err != nil {
		return fmt.Errorf("interp pass: %w", err)
	}
	r.set("policy.interp_ns_per_decision", interp, scaled(interpIters))
	// Derived, not measured: what DecideBatch costs beyond the interpreter
	// work it spreads over the shards that can run at once.
	parallel := float64(min(engineShards, runtime.GOMAXPROCS(0)))
	r.set("engine.handoff_ns_per_batch", direct*float64(w.Batch)-interp*float64(w.Batch)/parallel, scaled(directIters)/w.Batch)
	return smbmPasses(in.table, r)
}

func smbmPasses(table [][]int64, r *runResult) error {
	update, addDelete, err := smbmPass(table, r.Seed)
	if err != nil {
		return fmt.Errorf("smbm pass: %w", err)
	}
	r.set("smbm.update_ns_per_op", update, scaled(smbmIters))
	r.set("smbm.add_delete_ns_per_op", addDelete, scaled(smbmIters))
	return nil
}

// simWarmShare is the warm-up simulation's flow count as a share of the
// measured one: it grows the event arena and the heap before timing.
const simWarmShare = 0.1

// simReps is how many times the identical simulation is run. The work is
// fixed, so a repetition stands where a slice of the window stands on a
// served workload: rates are over all repetitions, a percentile is the median
// repetition's. Every repetition must execute the same events.
const simReps = 5

// simFlows draws the flow list of one repetition: simReps repetitions fill
// the measured seconds between them.
func simFlows(w *workloadSpec, seed int64, seconds float64) *inputs {
	_, window := windowLens(seconds / simReps)
	return genInputs(w, seed, 0, window)
}

// simTotal is simReps runs of one simulation: the first run's simulated
// quantities, which every run must repeat, and the runs' host costs summed.
type simTotal struct {
	*simOut
	steps [][]float64 // every repetition's stepUs
}

// repeatSim runs the simulation simReps times, the first on the network
// already built.
func repeatSim(w *workloadSpec, r *runResult, in *inputs, net *netsim.Network, traced bool) (*simTotal, error) {
	var t *simTotal
	for rep := 0; rep < simReps; rep++ {
		if rep > 0 {
			runtime.GC() // the finished repetition's network, outside any timing
			var err error
			if net, err = buildSim(w, r.Seed, in.flows); err != nil {
				return nil, err
			}
		}
		out := runSim(w, net, len(in.flows), traced)
		if t == nil {
			t = &simTotal{simOut: out, steps: [][]float64{out.stepUs}}
			continue
		}
		if out.events != t.events || out.digest != t.digest {
			r.invalid("repetition %d diverged: %d/%s vs %d/%s", rep, out.events, out.digest, t.events, t.digest)
			continue
		}
		t.steps = append(t.steps, out.stepUs)
		t.hostNs += out.hostNs
		t.cpuNs += out.cpuNs
		t.mallocs += out.mallocs
		t.gcPauseNs += out.gcPauseNs
		t.gcCycles += out.gcCycles
		t.fwdNs += out.fwdNs
		t.tickNs += out.tickNs
	}
	return t, nil
}

// reps is how many repetitions the host costs are summed over.
func (t *simTotal) reps() float64 { return float64(len(t.steps)) }

func simUntraced(w *workloadSpec, r *runResult) error {
	type simSetup struct {
		in  *inputs
		net *netsim.Network
	}
	su, setupS, err := repeatSetup(
		func() (simSetup, error) {
			in := simFlows(w, r.Seed, r.Seconds)
			net, err := buildSim(w, r.Seed, in.flows)
			return simSetup{in, net}, err
		},
		func(simSetup) {})
	if err != nil {
		return err
	}
	r.set("setup_s", setupS, setupRepeats)
	r.InputDigest = su.in.digest()
	if err := simWarmup(w, r); err != nil {
		return err
	}
	t, err := repeatSim(w, r, su.in, su.net, false)
	if err != nil {
		return err
	}
	simRecord(t.simOut, r)
	ev := float64(t.events) * t.reps()
	r.set("events_per_s", ev/(float64(t.hostNs)/1e9), int(ev))
	r.set("cpu_us_per_op", float64(t.cpuNs)/1e3/ev, int(ev))
	r.setPctl("step_p50_us", t.steps, 0.50)
	r.setPctl("step_p90_us", t.steps, 0.90)
	r.setPctl("step_p99_us", t.steps, 0.99)
	r.set("failed_ratio", float64(r.Failed)/float64(r.Attempted), t.flowsOffered)
	return nil
}

func simWarmup(w *workloadSpec, r *runResult) error {
	warm := simFlows(w, r.Seed+1, r.Seconds*simWarmShare)
	net, err := buildSim(w, r.Seed+1, warm.flows)
	if err != nil {
		return err
	}
	runSim(w, net, len(warm.flows), false)
	return nil
}

// simRecord records the simulated quantities that must repeat exactly.
func simRecord(out *simOut, r *runResult) {
	r.Attempted = int64(out.flowsOffered)
	r.Failed = int64(out.flowsOffered - out.flowsDone)
	r.Sim = &simInfo{Events: out.events, Digest: out.digest, FCTMeanUs: out.fctMeanUs, FCTP99Us: out.fctP99Us}
}

func simTraced(w *workloadSpec, r *runResult) error {
	in := simFlows(w, r.Seed, r.Seconds*tracedShare)
	r.InputDigest = in.digest()
	if err := simWarmup(w, r); err != nil {
		return err
	}
	// The same flows twice: plain, then with the leaf hooks wrapped. The
	// simulated quantities must agree; the host times give the overhead.
	net, err := buildSim(w, r.Seed, in.flows)
	if err != nil {
		return err
	}
	plain, err := repeatSim(w, r, in, net, false)
	if err != nil {
		return err
	}
	if net, err = buildSim(w, r.Seed, in.flows); err != nil {
		return err
	}
	out, err := repeatSim(w, r, in, net, true)
	if err != nil {
		return err
	}
	if out.events != plain.events || out.digest != plain.digest {
		r.invalid("wrapping the leaf hooks changed the simulation: %d/%s vs %d/%s", out.events, out.digest, plain.events, plain.digest)
	}
	simRecord(out.simOut, r)

	ev := float64(plain.events) * plain.reps()
	fwdCalls, tickCalls := float64(out.fwdCalls)*out.reps(), float64(out.tickCalls)*out.reps()
	r.set("trace.overhead_ratio", float64(out.hostNs)/out.reps()/(float64(plain.hostNs)/plain.reps()), int(out.reps()))
	r.set("untraced.cpu_us_per_op", float64(plain.cpuNs)/1e3/ev, int(ev))
	r.setPctl("untraced.step_p99_us", plain.steps, 0.99)
	r.set("netsim.ns_per_event", float64(plain.hostNs)/ev, int(ev))
	r.set("netsim.allocs_per_event", float64(plain.mallocs)/ev, int(ev))
	r.set("runtime.gc_pause_ms", float64(plain.gcPauseNs)/1e6, int(plain.gcCycles))
	r.set("runtime.gc_cycles", float64(plain.gcCycles), 1)
	r.set("netsim.forward_calls", float64(out.fwdCalls), 1)
	r.set("netsim.forward_ns_per_pkt", float64(out.fwdNs)/fwdCalls, int(fwdCalls))
	r.set("netsim.metric_tick_ns", float64(out.tickNs)/tickCalls, int(tickCalls))
	r.set("netsim.table_updates", float64(out.queueUpdates+out.tickCalls*int64(w.Spines)), 1)
	r.set("netsim.sim_events", float64(out.events), 1)
	r.set("netsim.pkts_delivered", float64(out.delivered), 1)
	r.set("netsim.drops", float64(out.drops), 1)
	r.set("netsim.retransmits", float64(out.retransmits), 1)
	r.set("netsim.flows_completed", float64(out.flowsDone), 1)
	r.set("netsim.sim_time_ms", float64(out.simTimeNs)/1e6, 1)

	depth := int(median(plain.pending))
	r.set("sim.ns_per_noop_event", noopPass(depth, plain.simTimeNs/plain.events), scaled(noopEvents))
	// One leaf's module: a table of Spines paths under the routing policy.
	paths := make([][]int64, w.Spines)
	for i := range paths {
		paths[i] = []int64{int64(i), 0, 0}
	}
	interp, err := interpPass(routingPolicy, policy.Schema{Attrs: []string{"util", "queue", "loss"}}, paths)
	if err != nil {
		return fmt.Errorf("interp pass: %w", err)
	}
	r.set("policy.interp_ns_per_decision", interp, scaled(interpIters))
	if err := smbmPasses(paths, r); err != nil {
		return err
	}
	return writeChromeTrace(filepath.Join(scratchDir, w.Name+".trace.json"), simSpans(out.simOut))
}

// simSpans lays the first spanKeep steps (1000 events each, at their slice's
// pace) end to end under one run span.
func simSpans(out *simOut) []span {
	n := len(out.stepUs)
	if n > spanKeep {
		n = spanKeep
	}
	var at int64
	spans := []span{{Name: "sim.run"}}
	for i := 0; i < n; i++ {
		d := int64(out.stepUs[i] * 1e3)
		spans = append(spans, span{Name: "sim.step", Start: at, End: at + d, Parent: "sim.run", Batch: uint64(i)})
		at += d
	}
	spans[0].End = at
	return spans
}
