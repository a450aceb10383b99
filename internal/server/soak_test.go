// Fault-injected soak: seeded client disconnects, a lossy control-update
// stream and policy hot-swaps hammer a live server. Nothing may wedge, and
// the replicas must end bit-identical.
package server_test

import (
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/telemetry"
)

// soakStats aggregates per-goroutine outcomes; only coarse invariants are
// asserted (progress happened, nothing unexplained failed).
type soakStats struct {
	decides    atomic.Uint64
	tableOps   atomic.Uint64
	swaps      atomic.Uint64
	reconnects atomic.Uint64
	rejects    atomic.Uint64
	resets     atomic.Uint64
}

func TestSoakFaultInjected(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	const shards, capacity = 4, 64
	// The flight recorder rides along for the whole soak; when the test fails
	// the recent span/event history is dumped into the log, which is exactly
	// the post-mortem the recorder exists for.
	fl := telemetry.NewFlightRecorder()
	defer func() {
		if t.Failed() {
			var dump strings.Builder
			if err := fl.WriteJSON(&dump, "soak failure"); err == nil {
				t.Logf("flight recorder:\n%s", dump.String())
			}
		}
	}()
	eng, err := engine.New(engine.Config{
		Shards:   shards,
		Capacity: capacity,
		Schema:   diffSchema,
		Policy:   policy.MustParse(diffPolicies[0]),
		Flight:   fl.Ring("engine", 512),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := server.New(server.Config{Backend: eng, Flight: fl.Ring("server", 512)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sock := t.TempDir() + "/soak.sock"
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	stop := make(chan struct{})
	var stats soakStats
	var wg sync.WaitGroup

	dial := func(seed int64) (*client.Client, error) {
		c, _, err := client.Dial(client.Config{
			Network: "unix", Addr: sock,
			MaxInflight: 4,
			Seed:        seed,
		})
		return c, err
	}

	// tolerate filters the errors the soak deliberately provokes; anything
	// else fails the test.
	tolerate := func(err error) bool {
		switch {
		case err == nil:
			return true
		case errors.Is(err, client.ErrRejected):
			stats.rejects.Add(1)
			return true
		case errors.Is(err, client.ErrConnReset), errors.Is(err, client.ErrClosed):
			stats.resets.Add(1)
			return true
		case errors.Is(err, client.ErrRemote):
			// Server shut our connection after a torn frame (lossy writer).
			stats.resets.Add(1)
			return true
		default:
			return false
		}
	}

	// Traffic goroutines: decide-heavy, with table updates mixed in. Each
	// abandons its connection at seeded intervals and redials through the
	// deterministic backoff path.
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(7000 + w)))
			cli, err := dial(int64(w))
			if err != nil {
				t.Errorf("worker %d: initial dial: %v", w, err)
				return
			}
			defer func() { cli.Close() }()
			keys := make([]uint64, 16)
			outs := make([]uint16, 16)
			for i := range keys {
				keys[i] = r.Uint64()
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch k := r.Intn(20); {
				case k == 0: // seeded disconnect + redial
					cli.Close()
					stats.reconnects.Add(1)
					var err error
					if cli, err = dial(int64(w*100 + int(stats.reconnects.Load()))); err != nil {
						t.Errorf("worker %d: redial: %v", w, err)
						return
					}
				case k < 16:
					ids, err := cli.Decide(keys, outs, nil)
					if !tolerate(err) {
						t.Errorf("worker %d: decide: %v", w, err)
						return
					}
					if err == nil {
						if len(ids) != len(keys) {
							t.Errorf("worker %d: %d ids for %d keys", w, len(ids), len(keys))
							return
						}
						stats.decides.Add(uint64(len(ids)))
					}
				default:
					// Each worker owns an id stripe so cross-worker dup-adds
					// don't dominate the statuses.
					id := uint32(w*16 + r.Intn(16))
					op := server.TableOp{Kind: server.TableUpsert, ID: id,
						Vals: []int64{int64(r.Intn(100)), int64(r.Intn(8192)), int64(r.Intn(10000))}}
					if r.Intn(4) == 0 {
						op = server.TableOp{Kind: server.TableDelete, ID: id}
					}
					if _, err := cli.Apply([]server.TableOp{op}, 3); !tolerate(err) {
						t.Errorf("worker %d: apply: %v", w, err)
						return
					}
					stats.tableOps.Add(1)
				}
			}
		}(w)
	}

	// Lossy control stream: writes raw, sometimes-torn table frames straight
	// onto a socket and drops the connection mid-frame. The server must shrug
	// every torn stream off without wedging or leaking the connection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(9001))
		for {
			select {
			case <-stop:
				return
			default:
			}
			nc, err := net.Dial("unix", sock)
			if err != nil {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			frame, _ := server.AppendTable(nil, 1, []server.TableOp{
				{Kind: server.TableUpsert, ID: uint32(60 + r.Intn(4)),
					Vals: []int64{1, 2, 3}},
			}, 3)
			cut := len(frame)
			if r.Intn(2) == 0 {
				cut = 1 + r.Intn(len(frame)-1) // tear the frame
			}
			nc.Write(frame[:cut])
			nc.Close()
			time.Sleep(time.Duration(1+r.Intn(4)) * time.Millisecond)
		}
	}()

	// Chaos: hot swaps through the wire.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(555))
		swapCli, err := dial(999)
		if err != nil {
			t.Errorf("chaos: dial: %v", err)
			return
		}
		defer func() { swapCli.Close() }()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			err := swapCli.SwapPolicy(diffPolicies[r.Intn(len(diffPolicies))])
			if !tolerate(err) {
				t.Errorf("chaos: swap: %v", err)
				return
			}
			if err == nil {
				stats.swaps.Add(1)
			}
		}
	}()

	time.Sleep(soakDuration)
	close(stop)
	wg.Wait()

	if err := eng.CheckSync(); err != nil {
		t.Fatalf("replicas diverged after soak: %v", err)
	}
	if stats.decides.Load() == 0 || stats.tableOps.Load() == 0 {
		t.Fatalf("no progress under soak: %+v", &stats)
	}
	t.Logf("soak: decides=%d tableOps=%d swaps=%d reconnects=%d rejects=%d resets=%d",
		stats.decides.Load(), stats.tableOps.Load(), stats.swaps.Load(),
		stats.reconnects.Load(), stats.rejects.Load(), stats.resets.Load())
}
