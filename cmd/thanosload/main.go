// Command thanosload is a synthetic load generator for thanosd: it drives
// batched decision requests from a configurable flow population (a million
// flows by default) over many pipelined connections and reports sustained
// decisions/sec with exact p50/p95/p99 batch latency, as text and optionally
// as a JSON artifact.
//
// Usage:
//
//	thanosload -spawn                      # self-contained: in-process server
//	thanosload -addr /tmp/thanos.sock -network unix
//	thanosload -addr :9090 -network tcp -conns 8 -inflight 8 -batch 256
//	thanosload -spawn -json load.json      # archive the result
//
// Every worker draws flow keys from a seeded generator, so two runs with the
// same -seed offer the server the same key population (arrival timing is of
// course load-dependent).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/telemetry"
)

// result is the machine-readable run summary written by -json.
type result struct {
	Network      string  `json:"network"`
	Conns        int     `json:"conns"`
	Inflight     int     `json:"inflight_per_conn"`
	Batch        int     `json:"batch"`
	Flows        int     `json:"flows"`
	Resources    int     `json:"resources"`
	Shards       int     `json:"shards"`
	DurationSec  float64 `json:"duration_sec"`
	Decisions    uint64  `json:"decisions"`
	Batches      uint64  `json:"batches"`
	Rejects      uint64  `json:"rejects"`
	DecisionsSec float64 `json:"decisions_per_sec"`
	P50Us        float64 `json:"p50_us"`
	P95Us        float64 `json:"p95_us"`
	P99Us        float64 `json:"p99_us"`
	MaxUs        float64 `json:"max_us"`

	// Tracing extras, present with -trace-every: the full batch-latency
	// histogram (power-of-two buckets, µs), the per-bucket exemplar trace
	// IDs, and the stitched cross-layer timeline of the tail exemplar.
	TraceEvery  int               `json:"trace_every,omitempty"`
	ServerBuild string            `json:"server_build,omitempty"`
	BucketsUs   map[string]uint64 `json:"latency_buckets_us,omitempty"`
	Exemplars   map[string]uint64 `json:"latency_exemplars,omitempty"`
	P99Exemplar *exemplarOut      `json:"p99_exemplar,omitempty"`
}

// phaseUs is one traced request's per-phase breakdown in microseconds.
type phaseUs struct {
	EnqueueUs float64 `json:"enqueue_us"` // client admission -> socket write
	WireUs    float64 `json:"wire_us"`    // socket write -> server decode
	DecideUs  float64 `json:"decide_us"`  // engine DecideBatch
	ReplyUs   float64 `json:"reply_us"`   // server done -> client demux
}

// exemplarOut links a tail-latency bucket to one sampled request's timeline.
type exemplarOut struct {
	TraceID uint64  `json:"trace_id"`
	Phases  phaseUs `json:"phases"`
}

func main() {
	addr := flag.String("addr", "", "server address (host:port or socket path)")
	network := flag.String("network", "unix", "tcp or unix")
	spawn := flag.Bool("spawn", false, "spawn an in-process server on a private Unix socket instead of dialing -addr")
	conns := flag.Int("conns", 4, "client connections")
	inflight := flag.Int("inflight", 4, "pipelined batches in flight per connection")
	batch := flag.Int("batch", 256, "decisions per request frame")
	flows := flag.Int("flows", 1_000_000, "distinct flow keys offered")
	duration := flag.Duration("duration", 10*time.Second, "measured load window")
	resources := flag.Int("resources", 1024, "table entries to install before the run")
	shards := flag.Int("shards", 0, "engine shards (table replicas = bound on concurrent decides) for -spawn (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 1, "flow population seed")
	jsonOut := flag.String("json", "", "write the run summary as JSON to this file (\"-\" = stdout)")
	traceEvery := flag.Int("trace-every", 0, "sample 1 in N batches for end-to-end tracing (0 = off; requires a v2 server)")
	traceOut := flag.String("trace-out", "", "write the sampled spans as a Chrome trace to this file (requires -trace-every)")
	flag.Parse()

	if !*spawn && *addr == "" {
		fmt.Fprintln(os.Stderr, "thanosload: -addr or -spawn required")
		flag.Usage()
		os.Exit(2)
	}

	var cleanup func()
	if *spawn {
		a, c := spawnServer(*shards, *resources)
		*addr, *network = a, "unix"
		cleanup = c
		defer cleanup()
	}

	// Flight rings for traced runs: the client records its own spans
	// (enqueue/wire/reply); the server's phase stamps come back echoed in
	// each traced reply and are re-recorded locally into the "server" ring,
	// so the stitched timeline works against remote servers too.
	fl := telemetry.NewFlightRecorder()
	clientRing := fl.Ring("client", 4096)
	serverRing := fl.Ring("server", 4096)

	dial := func(i int) *client.Client {
		c, _, err := client.Dial(client.Config{
			Network:     *network,
			Addr:        *addr,
			MaxInflight: *inflight,
			Seed:        *seed + int64(i),
			TraceEvery:  *traceEvery,
			Flight:      clientRing,
		})
		if err != nil {
			fatal("dial %s %s: %v", *network, *addr, err)
		}
		return c
	}

	// Install the resource table through the wire like any other control
	// client would.
	setup := dial(-1)
	installResources(setup, *resources)
	info, err := setup.Hello()
	if err != nil {
		fatal("hello: %v", err)
	}
	pong, err := setup.Ping()
	if err != nil {
		fatal("ping: %v", err)
	}
	setup.Close()
	if pong.Build != "" {
		fmt.Printf("thanosload: server %s, up %s, protocol v%d\n",
			pong.Build, time.Duration(pong.UptimeNs).Round(time.Millisecond), info.Version)
	}

	clients := make([]*client.Client, *conns)
	for i := range clients {
		clients[i] = dial(i)
	}

	var decisions, batches, rejects atomic.Uint64
	var mu sync.Mutex
	var samplesUs []float64 // per-batch latencies, µs
	var hist telemetry.Histogram
	timelines := map[uint64]client.TraceInfo{} // trace ID -> sampled timeline, under mu
	const maxTimelines = 1 << 16

	stop := make(chan struct{})
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
				var ti client.TraceInfo
				local := make([]float64, 0, 1<<14)
				for {
					select {
					case <-stop:
						mu.Lock()
						samplesUs = append(samplesUs, local...)
						mu.Unlock()
						return
					default:
					}
					for i := range keys {
						keys[i] = uint64(r.Intn(*flows))
					}
					t0 := time.Now()
					res, err := cli.DecideTraced(keys, outs, ids, &ti)
					lat := time.Since(t0)
					switch {
					case err == nil:
						ids = res
						decisions.Add(uint64(len(keys)))
						batches.Add(1)
						latUs := float64(lat.Nanoseconds()) / 1e3
						local = append(local, latUs)
						hist.ObserveExemplar(uint64(latUs), ti.ID)
						if ti.ID != 0 {
							// Re-record the server's echoed phase stamps so
							// the local flight snapshot stitches end to end.
							n := int64(len(keys))
							serverRing.Record(telemetry.SpanDecide, ti.ID, ti.Server.StartNs, ti.Server.DoneNs, n)
							mu.Lock()
							if len(timelines) < maxTimelines {
								timelines[ti.ID] = ti
							}
							mu.Unlock()
						}
					case err == client.ErrRejected:
						rejects.Add(1)
						time.Sleep(100 * time.Microsecond)
					default:
						fatal("decide: %v", err)
					}
				}
			}(cli, ci*(*inflight)+g)
		}
	}

	start := time.Now()
	time.Sleep(*duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, c := range clients {
		c.Close()
	}

	sort.Float64s(samplesUs)
	pct := func(p float64) float64 {
		if len(samplesUs) == 0 {
			return 0
		}
		i := int(p * float64(len(samplesUs)-1))
		return samplesUs[i]
	}
	res := result{
		Network:      *network,
		Conns:        *conns,
		Inflight:     *inflight,
		Batch:        *batch,
		Flows:        *flows,
		Resources:    *resources,
		Shards:       int(info.Shards),
		DurationSec:  elapsed,
		Decisions:    decisions.Load(),
		Batches:      batches.Load(),
		Rejects:      rejects.Load(),
		DecisionsSec: float64(decisions.Load()) / elapsed,
		P50Us:        pct(0.50),
		P95Us:        pct(0.95),
		P99Us:        pct(0.99),
		MaxUs:        pct(1.0),
		ServerBuild:  pong.Build,
	}
	if *traceEvery > 0 {
		res.TraceEvery = *traceEvery
		res.BucketsUs, res.Exemplars = bucketsAndExemplars(&hist)
		res.P99Exemplar = tailExemplar(&hist, timelines)
	}

	fmt.Printf("thanosload: %s, %d conns × %d inflight, batch %d, %d flows, %d resources, %d shards\n",
		*network, res.Conns, res.Inflight, res.Batch, res.Flows, res.Resources, res.Shards)
	fmt.Printf("  %.0f decisions/sec (%d decisions, %d batches, %d rejects in %.1fs)\n",
		res.DecisionsSec, res.Decisions, res.Batches, res.Rejects, res.DurationSec)
	fmt.Printf("  batch latency p50 %.0fµs  p95 %.0fµs  p99 %.0fµs  max %.0fµs\n",
		res.P50Us, res.P95Us, res.P99Us, res.MaxUs)
	if ex := res.P99Exemplar; ex != nil {
		fmt.Printf("  p99 exemplar trace %#x: enqueue %.1fµs  wire %.1fµs  decide %.1fµs  reply %.1fµs\n",
			ex.TraceID, ex.Phases.EnqueueUs, ex.Phases.WireUs, ex.Phases.DecideUs, ex.Phases.ReplyUs)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal("trace out: %v", err)
		}
		if err := telemetry.WriteSpanChromeTrace(f, fl.Snapshot()); err != nil {
			fatal("trace out: %v", err)
		}
		f.Close()
		fmt.Printf("  wrote Chrome trace to %s\n", *traceOut)
	}

	if *jsonOut != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal("marshal: %v", err)
		}
		b = append(b, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(b)
		} else if err := os.WriteFile(*jsonOut, b, 0o644); err != nil {
			fatal("write %s: %v", *jsonOut, err)
		}
	}
}

// bucketsAndExemplars renders the latency histogram's non-empty buckets as
// le -> count (µs bounds; "+Inf" for the open bucket) plus the per-bucket
// exemplar trace IDs.
func bucketsAndExemplars(h *telemetry.Histogram) (map[string]uint64, map[string]uint64) {
	buckets := map[string]uint64{}
	exemplars := map[string]uint64{}
	for i := 0; i < telemetry.NumBuckets; i++ {
		n := h.Bucket(i)
		if n == 0 {
			continue
		}
		le := "+Inf"
		if i < 64 {
			le = fmt.Sprintf("%d", telemetry.BucketBound(i))
		}
		buckets[le] = n
		if ex := h.Exemplar(i); ex != 0 {
			exemplars[le] = ex
		}
	}
	return buckets, exemplars
}

// tailExemplar walks the histogram from its highest populated bucket down
// and returns the first exemplar whose full timeline was retained: the
// p99-and-beyond request the operator would want to drill into.
func tailExemplar(h *telemetry.Histogram, timelines map[uint64]client.TraceInfo) *exemplarOut {
	us := func(a, b int64) float64 { return float64(b-a) / 1e3 }
	for i := telemetry.NumBuckets - 1; i >= 0; i-- {
		ex := h.Exemplar(i)
		if ex == 0 {
			continue
		}
		ti, ok := timelines[ex]
		if !ok {
			continue
		}
		return &exemplarOut{
			TraceID: ti.ID,
			Phases: phaseUs{
				EnqueueUs: us(ti.EnqueueNs, ti.SendNs),
				WireUs:    us(ti.SendNs, ti.Server.RecvNs),
				DecideUs:  us(ti.Server.StartNs, ti.Server.DoneNs),
				ReplyUs:   us(ti.Server.DoneNs, ti.ReplyNs),
			},
		}
	}
	return nil
}

// spawnServer runs an in-process engine + server on a private Unix socket so
// the generator is self-contained (loopback measurement mode).
func spawnServer(shards, resources int) (addr string, cleanup func()) {
	capacity := resources
	if capacity < 16 {
		capacity = 16
	}
	reg := telemetry.NewRegistry()
	eng, err := engine.New(engine.Config{
		Shards:    shards,
		Capacity:  capacity,
		Schema:    policy.Schema{Attrs: []string{"cpu", "mem", "bw"}},
		Policy:    policy.MustParse("policy load\nout best = min(table, cpu)\n"),
		Telemetry: reg,
	})
	if err != nil {
		fatal("spawn engine: %v", err)
	}
	srv, err := server.New(server.Config{Backend: eng, Telemetry: reg})
	if err != nil {
		fatal("spawn server: %v", err)
	}
	dir, err := os.MkdirTemp("", "thanosload")
	if err != nil {
		fatal("spawn tmpdir: %v", err)
	}
	sock := dir + "/load.sock"
	l, err := net.Listen("unix", sock)
	if err != nil {
		fatal("spawn listen: %v", err)
	}
	go srv.Serve(l)
	fmt.Printf("thanosload: spawned in-process server on %s (%d shards, GOMAXPROCS %d)\n",
		sock, eng.Shards(), runtime.GOMAXPROCS(0))
	return sock, func() {
		srv.Close()
		eng.Close()
		os.RemoveAll(dir)
	}
}

// installResources fills the table with a deterministic resource population.
func installResources(c *client.Client, n int) {
	r := rand.New(rand.NewSource(42))
	const chunk = 512
	for base := 0; base < n; base += chunk {
		m := chunk
		if base+m > n {
			m = n - base
		}
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
			fatal("install resources: %v", err)
		}
		for i, st := range sts {
			if st != server.StatusOK {
				fatal("install resource %d: status %d", base+i, st)
			}
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "thanosload: "+format+"\n", args...)
	os.Exit(1)
}
