package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"

	"repro/internal/server"
	"repro/internal/workload"
)

// inputs is everything a run feeds the program under test, generated from
// the seed before the timed window. The program sees only these.
type inputs struct {
	// table[id] is resource id's (cpu, mem, bw) at install time.
	table [][]int64
	// keys[c] is connection c's flow-key pool; batches are consecutive
	// windows of it, wrapping.
	keys [][]uint64

	// serve_churn: applyOps[t] is the Apply frame sent at tick t.
	applyOps [][]server.TableOp

	// netsim_routing.
	flows []flowSpec
}

type flowSpec struct {
	src, dst int
	bytes    int64
	atNs     int64
}

// Value ranges of the resource table, as thanosload installs them.
const (
	cpuRange = 100
	memRange = 8192
	bwRange  = 10000
	dims     = 3
)

// keyPoolLen is each connection's key pool: 256 Ki keys drawn from the
// workload's flow population, 2 MB.
const keyPoolLen = 1 << 18

// subSeed derives an independent stream seed (splitmix64 of seed and salt).
func subSeed(seed int64, salt uint64) int64 {
	x := uint64(seed) + salt*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

func newRand(seed int64, salt uint64) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, salt)))
}

// genInputs builds a workload's inputs. warmNs and windowNs are the warm-up
// and measured window lengths: schedules cover both.
func genInputs(w *workloadSpec, seed int64, warmNs, windowNs int64) *inputs {
	in := &inputs{}
	if w.Loop == loopSim {
		in.flows = genFlows(w, seed, int(float64(w.FlowsPerSec)*float64(windowNs)/1e9))
		return in
	}
	in.table = genTable(w.Resources, seed)
	for c := 0; c < w.Conns; c++ {
		r := newRand(seed, 100+uint64(c))
		pool := make([]uint64, keyPoolLen)
		for i := range pool {
			pool[i] = uint64(r.Intn(w.Flows))
		}
		in.keys = append(in.keys, pool)
	}
	if w.Loop == loopChurn {
		ticks := int((warmNs + windowNs) / (int64(w.ApplyEveryUs) * 1000))
		in.applyOps = genApplyOps(w, seed, in.table, ticks)
	}
	return in
}

// genTable draws the resource population. With at most cpuRange resources
// the cpu column is a permutation, so min(table, cpu) has one exact answer.
func genTable(n int, seed int64) [][]int64 {
	r := newRand(seed, 1)
	perm := r.Perm(cpuRange)
	t := make([][]int64, n)
	for i := range t {
		cpu := int64(r.Intn(cpuRange))
		if n <= cpuRange {
			cpu = int64(perm[i])
		}
		t[i] = []int64{cpu, int64(r.Intn(memRange)), int64(r.Intn(bwRange))}
	}
	return t
}

// genApplyOps is the write schedule: each tick upserts ApplyOps resources
// with a bounded random walk from their previous values (probe processing,
// §3 of the paper).
func genApplyOps(w *workloadSpec, seed int64, table [][]int64, ticks int) [][]server.TableOp {
	r := newRand(seed, 2)
	cur := make([][]int64, len(table))
	for i, row := range table {
		cur[i] = append([]int64(nil), row...)
	}
	walk := func(v, step, limit int64) int64 {
		v += r.Int63n(2*step+1) - step
		if v < 0 {
			v = 0
		}
		if v >= limit {
			v = limit - 1
		}
		return v
	}
	out := make([][]server.TableOp, ticks)
	for t := range out {
		ops := make([]server.TableOp, w.ApplyOps)
		for i := range ops {
			id := r.Intn(len(table))
			row := cur[id]
			row[0] = walk(row[0], 5, cpuRange)
			row[1] = walk(row[1], 256, memRange)
			row[2] = walk(row[2], 500, bwRange)
			ops[i] = server.TableOp{Kind: server.TableUpsert, ID: uint32(id), Vals: append([]int64(nil), row...)}
		}
		out[t] = ops
	}
	return out
}

// genFlows draws the simulator's flow list: web-search sizes, Poisson
// arrivals at the pinned load, uniform distinct endpoints — the offer
// cmd/netsim makes, from this benchmark's own seed.
func genFlows(w *workloadSpec, seed int64, n int) []flowSpec {
	if n < 10 {
		n = 10
	}
	const sizeScale = 0.5 // experiments.DefaultNetConfig
	const linkBps = 10e9  // netsim.DefaultConfig
	ws := workload.MustWebSearch()
	hosts := w.Leaves * w.HostsPerLeaf
	pa, err := workload.NewPoissonArrivals(w.Load, hosts, linkBps, ws.MeanBytes()*sizeScale)
	if err != nil {
		panic(err) // pinned load is valid
	}
	r := newRand(seed, 3)
	flows := make([]flowSpec, n)
	var at float64
	for i := range flows {
		src, dst := r.Intn(hosts), r.Intn(hosts)
		for dst == src {
			dst = r.Intn(hosts)
		}
		size := int64(float64(ws.Sample(r)) * sizeScale)
		if size < 1 {
			size = 1
		}
		flows[i] = flowSpec{src: src, dst: dst, bytes: size, atNs: int64(at)}
		at += pa.NextGapSec(r) * 1e9
	}
	return flows
}

// digest hashes every generated input, so "same seed, same inputs" is a
// checkable statement.
func (in *inputs) digest() string {
	sum := sha256.New()
	h := bufio.NewWriterSize(sum, 1<<16)
	put := func(h *bufio.Writer, v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:]) // a sha256 sink cannot fail
	}
	for _, row := range in.table {
		for _, v := range row {
			put(h, v)
		}
	}
	for _, pool := range in.keys {
		for _, k := range pool {
			put(h, int64(k))
		}
	}
	for _, ops := range in.applyOps {
		for _, op := range ops {
			put(h, int64(op.ID))
			for _, v := range op.Vals {
				put(h, v)
			}
		}
	}
	for _, f := range in.flows {
		put(h, int64(f.src))
		put(h, int64(f.dst))
		put(h, f.bytes)
		put(h, f.atNs)
	}
	h.Flush()
	return hex.EncodeToString(sum.Sum(nil)[:16])
}
