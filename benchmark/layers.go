package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/smbm"
)

// Isolated passes: each layer's public functions called directly, with the
// workload's own generated inputs, outside any server. Iteration counts are
// pinned so parent and change time the same work.
const (
	codecIters  = 20_000 // batches
	directIters = 400_000
	interpIters = 200_000
	smbmIters   = 100_000
	noopEvents  = 2_000_000
)

// passScale shrinks the isolated passes; only the tests set it.
var passScale = 1.0

func scaled(n int) int { return max(1, int(float64(n)*passScale)) }

// routingPolicy is experiments.RouteMultiDim's DSL at TopX = 2 (the source
// is unexported there), over the routing schema (util, queue, loss).
const routingPolicy = `
let good = intersect(minK(table, queue, 2), minK(table, loss, 2), minK(table, util, 2))
out primary = min(good, util)
out backup  = min(table, util)
fallback primary -> backup
`

var serveSchema = policy.Schema{Attrs: []string{"cpu", "mem", "bw"}}

// sink keeps the compiler from removing a measured call.
var sink int

// codecPass times the four codec calls one batch crosses: request encode and
// decode, reply encode and decode. Returns ns per decision and allocations
// per batch.
func codecPass(keys []uint64, batch int) (nsPerDecision, allocsPerBatch float64, err error) {
	k := keys[:batch]
	outs := make([]uint16, batch)
	body := func(frame []byte) ([]byte, error) {
		_, _, b, err := server.NewFrameReader(bytes.NewReader(frame), server.MaxPayload).Next()
		return append([]byte(nil), b...), err
	}
	reqBody, err := body(server.AppendDecide(nil, 1, k, outs))
	if err != nil {
		return 0, 0, fmt.Errorf("codec: %w", err)
	}
	pkts, _, err := server.DecodeDecide(reqBody, server.MaxBatch, nil)
	if err != nil {
		return 0, 0, fmt.Errorf("codec: %w", err)
	}
	for i := range pkts {
		pkts[i].ID, pkts[i].OK = i%7, true
	}
	repBody, err := body(server.AppendDecided(nil, 1, pkts))
	if err != nil {
		return 0, 0, fmt.Errorf("codec: %w", err)
	}
	var buf []byte
	var ids []int32
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := scaled(codecIters)
	start := time.Now()
	for i := 0; i < n; i++ {
		buf = server.AppendDecide(buf[:0], uint32(i), k, outs)
		pkts, _, err = server.DecodeDecide(reqBody, server.MaxBatch, pkts)
		if err != nil {
			return 0, 0, fmt.Errorf("codec: %w", err)
		}
		buf = server.AppendDecided(buf[:0], uint32(i), pkts)
		ids, _, err = server.DecodeDecided(repBody, server.MaxBatch, ids)
		if err != nil {
			return 0, 0, fmt.Errorf("codec: %w", err)
		}
	}
	ns := float64(time.Since(start))
	runtime.ReadMemStats(&m1)
	sink += len(buf) + len(ids)
	return ns / float64(n*batch), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// enginePass times Engine.DecideBatch with no server in front: same table,
// policy, keys and batch. Returns ns per decision.
func enginePass(w *workloadSpec, in *inputs) (float64, error) {
	pol, err := policy.Parse(w.Policy)
	if err != nil {
		return 0, err
	}
	eng, err := engine.New(engine.Config{Shards: engineShards, Capacity: w.Resources, Schema: serveSchema, Policy: pol})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	for id, row := range in.table {
		if err := eng.Upsert(id, row); err != nil {
			return 0, err
		}
	}
	pkts := make([]engine.Packet, w.Batch)
	keys := keyCursor{pool: in.keys[0], batch: w.Batch}
	iters := max(50, scaled(directIters)/w.Batch)
	run := func(n int) {
		for i := 0; i < n; i++ {
			for j, k := range keys.next() {
				pkts[j] = engine.Packet{Key: k}
			}
			eng.DecideBatch(pkts)
		}
	}
	run(iters / 10) // warm the version-cached sets
	start := time.Now()
	run(iters)
	ns := float64(time.Since(start))
	sink += pkts[0].ID
	return ns / float64(iters*w.Batch), nil
}

// interpPass times policy.Module.Decide on one goroutine over a table of the
// given rows. Returns ns per decision.
func interpPass(dsl string, schema policy.Schema, table [][]int64) (float64, error) {
	pol, err := policy.Parse(dsl)
	if err != nil {
		return 0, err
	}
	mod, err := policy.NewModule(len(table), schema, pol)
	if err != nil {
		return 0, err
	}
	for id, row := range table {
		if err := mod.Upsert(id, row); err != nil {
			return 0, err
		}
	}
	n := scaled(interpIters)
	for i := 0; i < n/10; i++ {
		mod.Decide()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		id, _ := mod.Decide()
		sink += id
	}
	return float64(time.Since(start)) / float64(n), nil
}

// smbmPass times SMBM.Update and a Delete+Add pair at the workload's table
// size. Returns ns per op for each.
func smbmPass(table [][]int64, seed int64) (updateNs, addDeleteNs float64, err error) {
	t := smbm.New(len(table), len(table[0]))
	for id, row := range table {
		if err := t.Add(id, row); err != nil {
			return 0, 0, err
		}
	}
	r := newRand(seed, 4)
	n := scaled(smbmIters)
	ids := make([]int, n)
	vals := make([][]int64, n)
	for i := range ids {
		ids[i] = r.Intn(len(table))
		row := make([]int64, len(table[0]))
		for d := range row {
			row[d] = int64(r.Intn(bwRange))
		}
		vals[i] = row
	}
	start := time.Now()
	for i, id := range ids {
		if err := t.Update(id, vals[i]); err != nil {
			return 0, 0, err
		}
	}
	updateNs = float64(time.Since(start)) / float64(n)
	start = time.Now()
	for i, id := range ids {
		if err := t.Delete(id); err != nil {
			return 0, 0, err
		}
		if err := t.Add(id, vals[i]); err != nil {
			return 0, 0, err
		}
	}
	addDeleteNs = float64(time.Since(start)) / float64(2*n)
	return updateNs, addDeleteNs, nil
}

// noopPass times the bare scheduler: depth self-rescheduling chains of empty
// events, holding the queue at the depth the simulation held, spread over
// the same simulated gap per event. Returns ns per event.
func noopPass(depth int, gapNs int64) float64 {
	if depth < 1 {
		depth = 1
	}
	if gapNs < 1 {
		gapNs = 1
	}
	s := sim.New(1)
	left := scaled(noopEvents)
	x := uint64(88172645463325252)
	var fire func()
	fire = func() {
		left--
		if left < depth {
			return
		}
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s.After(sim.Time(1+x%uint64(2*gapNs*int64(depth))), fire)
	}
	for i := 0; i < depth; i++ {
		s.After(sim.Time(i+1), fire)
	}
	start := time.Now()
	n := s.Run()
	return float64(time.Since(start)) / float64(n)
}
