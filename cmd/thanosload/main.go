// Command thanosload is a traffic generator for thanosd: it drives batched
// decision requests from a configurable flow population (a million flows by
// default) over many pipelined connections and prints the decisions/s it
// sustained. Latency percentiles, the per-layer ledger and stitched traces
// are the repository benchmark's job (`bash benchmark/run.sh --trace 1`).
//
// Usage:
//
//	thanosload -spawn                      # self-contained: in-process server
//	thanosload -addr /tmp/thanos.sock -network unix
//	thanosload -addr :9090 -network tcp -conns 8 -inflight 8 -batch 256
//	thanosload -addr /tmp/thanos.sock -trace-every 64   # traced frames
//
// Every worker draws flow keys from a seeded generator, so two runs with the
// same -seed offer the server the same key population (arrival timing is of
// course load-dependent).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one thanosload invocation and returns its exit code: 2 for a
// bad flag or a missing target, 1 for a failed connection, install or decide.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thanosload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "server address (host:port or socket path)")
	network := fs.String("network", "unix", "tcp or unix")
	spawn := fs.Bool("spawn", false, "spawn an in-process server on a private Unix socket instead of dialing -addr")
	conns := fs.Int("conns", 4, "client connections")
	inflight := fs.Int("inflight", 4, "pipelined batches in flight per connection")
	batch := fs.Int("batch", 256, "decisions per request frame")
	flows := fs.Int("flows", 1_000_000, "distinct flow keys offered")
	duration := fs.Duration("duration", 10*time.Second, "load window")
	resources := fs.Int("resources", 1024, "table entries to install before the run")
	shards := fs.Int("shards", 0, "engine shards (table replicas = bound on concurrent decides) for -spawn (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 1, "flow population seed")
	traceEvery := fs.Int("trace-every", 0, "send 1 in N batches as a traced frame (0 = off)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag set has printed the error and usage
	}
	if !*spawn && *addr == "" {
		fmt.Fprintln(stderr, "thanosload: -addr or -spawn required")
		fs.Usage()
		return 2
	}

	if *spawn {
		a, cleanup, err := spawnServer(*shards, *resources)
		if err != nil {
			fmt.Fprintf(stderr, "thanosload: spawn: %v\n", err)
			return 1
		}
		defer cleanup()
		*addr, *network = a, "unix"
	}
	dial := func(i int) (*client.Client, error) {
		c, _, err := client.Dial(client.Config{
			Network:     *network,
			Addr:        *addr,
			MaxInflight: *inflight,
			Seed:        *seed + int64(i),
			TraceEvery:  *traceEvery,
		})
		if err != nil {
			return nil, fmt.Errorf("dial: %w", err)
		}
		return c, nil
	}

	// Install the resource table through the wire like any other control
	// client would.
	setup, err := dial(-1)
	if err == nil {
		err = installResources(setup, *resources)
		setup.Close()
	}
	if err != nil {
		fmt.Fprintf(stderr, "thanosload: %v\n", err)
		return 1
	}

	clients := make([]*client.Client, 0, *conns)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < *conns; i++ {
		c, err := dial(i)
		if err != nil {
			fmt.Fprintf(stderr, "thanosload: %v\n", err)
			return 1
		}
		clients = append(clients, c)
	}

	// The first worker error, or the end of the window, stops every worker.
	var decisions, rejects atomic.Uint64
	stop := make(chan struct{})
	var stopOnce sync.Once
	var werr error
	halt := func(err error) {
		stopOnce.Do(func() {
			werr = err
			close(stop)
		})
	}
	var wg sync.WaitGroup
	for ci, cli := range clients {
		for g := 0; g < *inflight; g++ {
			wg.Add(1)
			go func(cli *client.Client, id int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(*seed<<16 + int64(id)))
				keys := make([]uint64, *batch)
				outs := make([]uint16, *batch)
				var ids []int32
				for {
					select {
					case <-stop:
						return
					default:
					}
					for i := range keys {
						keys[i] = uint64(r.Intn(*flows))
					}
					res, err := cli.Decide(keys, outs, ids)
					switch {
					case err == nil:
						ids = res
						decisions.Add(uint64(len(keys)))
					case err == client.ErrRejected:
						rejects.Add(1)
						time.Sleep(100 * time.Microsecond)
					default:
						halt(fmt.Errorf("decide: %w", err))
						return
					}
				}
			}(cli, ci*(*inflight)+g)
		}
	}

	start := time.Now()
	select {
	case <-time.After(*duration):
	case <-stop:
	}
	halt(nil)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if werr != nil {
		fmt.Fprintf(stderr, "thanosload: %v\n", werr)
		return 1
	}
	fmt.Fprintf(stdout, "thanosload: %.0f decisions/s (%d decisions, %d rejects in %.1fs)\n",
		float64(decisions.Load())/elapsed, decisions.Load(), rejects.Load(), elapsed)
	return 0
}

// spawnServer runs an in-process engine + server on a private Unix socket so
// the generator is self-contained (loopback mode).
func spawnServer(shards, resources int) (addr string, cleanup func(), err error) {
	reg := telemetry.NewRegistry()
	eng, err := engine.New(engine.Config{
		Shards:    shards,
		Capacity:  max(resources, 16),
		Schema:    policy.Schema{Attrs: []string{"cpu", "mem", "bw"}},
		Policy:    policy.MustParse("policy load\nout best = min(table, cpu)\n"),
		Telemetry: reg,
	})
	if err != nil {
		return "", nil, err
	}
	srv, err := server.New(server.Config{Backend: eng, Telemetry: reg})
	if err != nil {
		eng.Close()
		return "", nil, err
	}
	dir, err := os.MkdirTemp("", "thanosload")
	if err != nil {
		eng.Close()
		return "", nil, err
	}
	sock := dir + "/load.sock"
	l, err := net.Listen("unix", sock)
	if err != nil {
		eng.Close()
		os.RemoveAll(dir)
		return "", nil, err
	}
	go srv.Serve(l)
	return sock, func() {
		srv.Close()
		eng.Close()
		os.RemoveAll(dir)
	}, nil
}

// installResources fills the table with a deterministic resource population:
// cpu in [0, 100), mem in [0, 8192), bw in [0, 10000).
func installResources(c *client.Client, n int) error {
	r := rand.New(rand.NewSource(42))
	const chunk = 512
	for base := 0; base < n; base += chunk {
		m := min(chunk, n-base)
		ops := make([]server.TableOp, m)
		for i := range ops {
			ops[i] = server.TableOp{
				Kind: server.TableUpsert,
				ID:   uint32(base + i),
				Vals: []int64{int64(r.Intn(100)), int64(r.Intn(8192)), int64(r.Intn(10000))},
			}
		}
		sts, err := c.Apply(ops, 3)
		if err != nil {
			return fmt.Errorf("install resources: %w", err)
		}
		for i, st := range sts {
			if st != server.StatusOK {
				return fmt.Errorf("install resource %d: status %d", base+i, st)
			}
		}
	}
	return nil
}
