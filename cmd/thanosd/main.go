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
	"errors"
	"flag"
	"fmt"
	"io"
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
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// run serves until a signal arrives on stop, then drains the connections
// and returns 0. It returns 2 for a bad flag or no listen address and 1
// when the policy, the engine, the server or a listener cannot be set up.
func run(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) int {
	fs := flag.NewFlagSet("thanosd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tcp := fs.String("tcp", "", "TCP listen address (e.g. :9090); empty disables")
	uds := fs.String("uds", "", "Unix domain socket path; empty disables")
	shards := fs.Int("shards", 0, "engine shards: table replicas, each deciding for one caller at a time, so the bound on concurrent decides (0 = GOMAXPROCS)")
	capacity := fs.Int("capacity", 4096, "resource slots per replica table")
	schema := fs.String("schema", "cpu,mem,bw", "comma-separated metric attributes")
	policyPath := fs.String("policy", "", "policy DSL file (default: min over the first attribute)")
	metrics := fs.String("metrics", "", "telemetry HTTP address (/metrics, /debug/vars, /debug/thanos); empty disables")
	maxconns := fs.Int("maxconns", server.DefaultMaxConns, "connection admission limit")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof on the -metrics address")
	flightCap := fs.Int("flight", 256, "per-component flight-recorder ring capacity")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag set has printed the error and usage
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "thanosd: "+format+"\n", a...)
		return 1
	}

	if *tcp == "" && *uds == "" {
		fmt.Fprintln(stderr, "thanosd: at least one of -tcp or -uds is required")
		fs.Usage()
		return 2
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
			return fail("read policy: %v", err)
		}
		src = string(b)
	}
	pol, err := policy.Parse(src)
	if err != nil {
		return fail("parse policy: %v", err)
	}

	reg := telemetry.NewRegistry()
	// The flight recorder runs always-on: the engine and server record their
	// recent spans and state transitions into per-component rings for ~free,
	// and a diverged replica's rebuild or SIGQUIT dumps the history to stderr.
	flight := telemetry.NewFlightRecorder()
	flight.SetAutoDump(stderr)
	eng, err := engine.New(engine.Config{
		Shards:    *shards,
		Capacity:  *capacity,
		Schema:    sch,
		Policy:    pol,
		Telemetry: reg,
		Flight:    flight.Ring("engine", *flightCap),
		OnQuarantine: func(shard int, cause error) {
			flight.Trip(fmt.Sprintf("shard %d rebuilt after divergence: %v", shard, cause))
		},
	})
	if err != nil {
		return fail("engine: %v", err)
	}
	defer eng.Close()

	srv, err := server.New(server.Config{
		Backend:   eng,
		MaxConns:  *maxconns,
		Telemetry: reg,
		Flight:    flight.Ring("server", *flightCap),
	})
	if err != nil {
		return fail("server: %v", err)
	}

	// Drain on every return: close the server and wait for its Serve
	// loops. Closing a Unix listener also removes its socket file.
	var wg sync.WaitGroup
	defer func() {
		srv.Close()
		wg.Wait()
	}()
	serve := func(network, addr string) error {
		if network == "unix" {
			// A stale socket from an unclean exit would fail the bind.
			os.Remove(addr)
		}
		l, err := net.Listen(network, addr)
		if err != nil {
			return fmt.Errorf("listen %s %s: %w", network, addr, err)
		}
		fmt.Fprintf(stdout, "thanosd: serving %s %s (%d shards, capacity %d)\n",
			network, addr, eng.Shards(), eng.Capacity())
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := srv.Serve(l); err != server.ErrServerClosed {
				fmt.Fprintf(stderr, "thanosd: serve %s: %v\n", addr, err)
			}
		}()
		return nil
	}
	if *tcp != "" {
		if err := serve("tcp", *tcp); err != nil {
			return fail("%v", err)
		}
	}
	if *uds != "" {
		if err := serve("unix", *uds); err != nil {
			return fail("%v", err)
		}
	}
	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			return fail("metrics listen: %v", err)
		}
		defer ln.Close()
		fmt.Fprintf(stdout, "thanosd: telemetry on http://%s/metrics\n", ln.Addr())
		go http.Serve(ln, telemetry.NewMux(telemetry.MuxConfig{
			Registry: reg,
			Flight:   flight,
			Introspect: map[string]func() any{
				"engine": func() any { return eng.Introspect() },
				"server": func() any { return srv.Introspect() },
			},
			Pprof: *pprofOn,
		}))
	}

	// SIGQUIT dumps the flight recorder without exiting, the classic
	// kill -QUIT diagnostic; a signal on stop drains and exits.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	defer func() {
		signal.Stop(quit)
		close(quit)
	}()
	go func() {
		for range quit {
			flight.Trip("SIGQUIT")
		}
	}()

	s := <-stop
	fmt.Fprintf(stdout, "thanosd: %v, draining\n", s)
	return 0
}
