package perfcheck

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/server/client"
)

// servedBench is the served path's pinned kernel. It lives in a test file so
// that only this package's test binary links the server and the client:
// linked into thanosbench they moved bitvec.(*Vector).AndInto across a
// 64-byte boundary, and BitvecAndInto read 1.36x with no code of its own
// changed. It carries the wide band: a round trip is mostly kernel and
// scheduler time, which neither calibration spin sees — on the two-vCPU
// reference VM the same binary reads 7.0-7.1 us and, minutes later, 8.9-9.4 us
// with both calibrations unmoved — so the gate catches a path that got half as
// slow again, and alternated pairs of the end-to-end benchmark (benchmark/)
// resolve anything finer.
func servedBench() Benchmark {
	return Benchmark{Name: "ServerRoundTrip", Iters: 20000, Threshold: simThreshold, Setup: setupServerRoundTrip}
}

// setupServerRoundTrip is the benchmark's serve_wire workload on one
// connection: an in-process server on a Unix socket over a two-shard engine,
// 64 resources under min(table, cpu), one client with a window of one, one
// 8-key Decide round trip per iteration — two socket writes, two socket reads
// and two goroutine wake-ups around a decision that costs well under a
// microsecond.
func setupServerRoundTrip() (func(int), error) {
	const resources, batch = 64, 8
	eng, err := engine.New(engine.Config{
		Shards:   2,
		Capacity: resources,
		Schema:   policy.Schema{Attrs: []string{"cpu", "mem", "bw"}},
		Policy:   policy.MustParse("policy wire\nout best = min(table, cpu)\n"),
	})
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(18))
	for id := 0; id < resources; id++ {
		if err := eng.Add(id, []int64{int64(1 + r.Intn(1000)), int64(r.Intn(8192)), int64(r.Intn(10000))}); err != nil {
			return nil, err
		}
	}
	srv, err := server.New(server.Config{Backend: eng})
	if err != nil {
		return nil, err
	}
	// The socket's directory is removed as soon as the one connection is up;
	// server and engine live until the process exits, like every other
	// kernel's state.
	dir, err := os.MkdirTemp("", "perfcheck")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "rt.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	go srv.Serve(l)
	c, _, err := client.Dial(client.Config{Network: "unix", Addr: sock, MaxInflight: 1})
	if err != nil {
		return nil, err
	}
	keys, outs := make([]uint64, batch), make([]uint16, batch)
	ids := make([]int32, 0, batch)
	return func(i int) {
		for j := range keys {
			keys[j] = uint64(i*batch+j) * 0x9E3779B97F4A7C15
		}
		var err error
		if ids, err = c.Decide(keys, outs, ids); err != nil || len(ids) != batch || ids[0] < 0 {
			panic(fmt.Sprintf("perfcheck: round trip %d: ids %v err %v", i, ids, err))
		}
	}, nil
}

// TestServerRoundTrip is `make check-perf`'s served-path step. With
// PERFCHECK_AGAINST naming a checkpoint it measures the kernel beside both
// calibrations and gates it as thanosbench -checkpoint gates the rest of the
// set, re-measuring a flagged run up to three times; PERFCHECK_OUT names the
// fresh checkpoint thanosbench wrote, which gains the kernel's entry. Without
// them it is a functional smoke of the kernel.
func TestServerRoundTrip(t *testing.T) {
	set := []Benchmark{calibrationBench(), calibrationMemBench(), servedBench()}
	against := os.Getenv("PERFCHECK_AGAINST")
	if against == "" {
		body, err := setupServerRoundTrip()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			body(i)
		}
		return
	}
	base, err := Load(against)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(set, os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	cmp := Compare(base, fresh, Thresholds(set))
	for retry := 1; cmp.Failed() && retry <= 3; retry++ {
		re, err := Run(set, os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Merge(re)
		cmp = Compare(base, fresh, Thresholds(set))
	}
	if out := os.Getenv("PERFCHECK_OUT"); out != "" {
		cp, err := Load(out)
		if err != nil {
			t.Fatal(err)
		}
		cp.Benchmarks[servedBench().Name] = fresh.Benchmarks[servedBench().Name]
		if err := cp.WriteFile(out); err != nil {
			t.Fatal(err)
		}
	}
	cmp.Report(os.Stdout)
	if cmp.Failed() {
		t.Fatalf("regression vs %s", against)
	}
}
