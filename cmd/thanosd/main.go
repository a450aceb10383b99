// Command thanosd serves the sharded decision engine over the wire protocol:
// a length-prefixed batched binary protocol on TCP and/or Unix domain
// sockets, with flow-keyed routing onto engine shards, one run-to-completion
// goroutine per connection (nothing queued in the server: transport flow
// control and the client window are the admission mechanism, -maxconns caps
// connections) and live policy hot-swap. A telemetry endpoint exports the
// server and engine metric sets.
//
// Usage:
//
//	thanosd -uds /tmp/thanos.sock                 # serve a Unix socket
//	thanosd -tcp :9090 -shards 8 -capacity 4096   # serve TCP
//	thanosd -tcp :9090 -uds /tmp/thanos.sock      # both at once
//	thanosd -policy pol.thanos -metrics :9091     # custom policy + /metrics
//
// The policy file uses the repo's policy DSL; without -policy a minimal
// deterministic policy over the -schema attributes is served (hot-swap it
// over the wire). SIGINT/SIGTERM drain connections and exit cleanly.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	tcp := flag.String("tcp", "", "TCP listen address (e.g. :9090); empty disables")
	uds := flag.String("uds", "", "Unix domain socket path; empty disables")
	shards := flag.Int("shards", 0, "engine shards: table replicas, each deciding for one caller at a time, so the bound on concurrent decides (0 = GOMAXPROCS)")
	capacity := flag.Int("capacity", 4096, "resource slots per replica table")
	schema := flag.String("schema", "cpu,mem,bw", "comma-separated metric attributes")
	policyPath := flag.String("policy", "", "policy DSL file (default: min over the first attribute)")
	metrics := flag.String("metrics", "", "telemetry HTTP address (/metrics, /debug/vars, /trace); empty disables")
	maxconns := flag.Int("maxconns", server.DefaultMaxConns, "connection admission limit")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof on the -metrics address")
	flightCap := flag.Int("flight", 256, "per-component flight-recorder ring capacity")
	flag.Parse()

	if *tcp == "" && *uds == "" {
		fmt.Fprintln(os.Stderr, "thanosd: at least one of -tcp or -uds is required")
		flag.Usage()
		os.Exit(2)
	}

	attrs := strings.Split(*schema, ",")
	for i := range attrs {
		attrs[i] = strings.TrimSpace(attrs[i])
	}
	sch := policy.Schema{Attrs: attrs}

	src := fmt.Sprintf("policy thanosd\nout best = min(table, %s)\n", attrs[0])
	if *policyPath != "" {
		b, err := os.ReadFile(*policyPath)
		if err != nil {
			fatal("read policy: %v", err)
		}
		src = string(b)
	}
	pol, err := policy.Parse(src)
	if err != nil {
		fatal("parse policy: %v", err)
	}

	reg := telemetry.NewRegistry()
	// The flight recorder runs always-on: the engine and server record their
	// recent spans and state transitions into per-component rings for ~free,
	// and a shard quarantine or SIGQUIT dumps the history to stderr.
	flight := telemetry.NewFlightRecorder()
	flight.SetAutoDump(os.Stderr)
	eng, err := engine.New(engine.Config{
		Shards:    *shards,
		Capacity:  *capacity,
		Schema:    sch,
		Policy:    pol,
		Telemetry: reg,
		Flight:    flight.Ring("engine", *flightCap),
		OnQuarantine: func(shard int, cause error) {
			flight.Trip(fmt.Sprintf("shard %d quarantined: %v", shard, cause))
		},
	})
	if err != nil {
		fatal("engine: %v", err)
	}
	defer eng.Close()

	srv, err := server.New(server.Config{
		Backend:   eng,
		MaxConns:  *maxconns,
		Telemetry: reg,
		Flight:    flight.Ring("server", *flightCap),
	})
	if err != nil {
		fatal("server: %v", err)
	}

	var wg sync.WaitGroup
	serve := func(network, addr string) {
		if network == "unix" {
			// A stale socket from an unclean exit would fail the bind.
			os.Remove(addr)
		}
		l, err := net.Listen(network, addr)
		if err != nil {
			fatal("listen %s %s: %v", network, addr, err)
		}
		fmt.Printf("thanosd: serving %s %s (%d shards, capacity %d)\n",
			network, addr, eng.Shards(), eng.Capacity())
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(l); err != server.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "thanosd: serve %s: %v\n", addr, err)
			}
		}()
	}
	if *tcp != "" {
		serve("tcp", *tcp)
	}
	if *uds != "" {
		serve("unix", *uds)
	}
	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fatal("metrics listen: %v", err)
		}
		fmt.Printf("thanosd: telemetry on http://%s/metrics\n", ln.Addr())
		go http.Serve(ln, telemetry.NewMux(telemetry.MuxConfig{
			Registry: reg,
			Traces:   eng.TraceSnapshot,
			Flight:   flight,
			Introspect: map[string]func() any{
				"engine": func() any { return eng.Introspect() },
				"server": func() any { return srv.Introspect() },
			},
			Pprof: *pprofOn,
		}))
	}

	// SIGQUIT dumps the flight recorder without exiting, the classic
	// kill -QUIT diagnostic; SIGINT/SIGTERM drain and exit.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			flight.Trip("SIGQUIT")
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("thanosd: %v, draining\n", s)
	srv.Close()
	wg.Wait()
	if *uds != "" {
		os.Remove(*uds)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "thanosd: "+format+"\n", args...)
	os.Exit(1)
}
