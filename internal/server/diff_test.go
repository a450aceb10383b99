// Differential protocol test: a randomized request/update stream is played
// simultaneously over the wire (UDS loopback -> server -> engine) and against
// a second, identical in-process engine (the oracle). With one request in
// flight at a time the server must execute ops in arrival order, so every
// wire answer — decision ids, per-op table statuses, swap outcomes — must
// match the oracle op for op, including across interleaved policy hot-swaps.
package server_test

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"testing"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/smbm"
)

var diffSchema = policy.Schema{Attrs: []string{"cpu", "mem", "bw"}}

// Swap candidates: deterministic, stochastic, multi-output, and two invalid
// flavors (parse error, validation error) that must be rejected identically.
var diffPolicies = []string{
	"policy d0\nout best = min(table, cpu)\n",
	"policy d1\nout top = max(table, mem)\nout low = min(table, bw)\n",
	"policy d2\nlet ok = filter(table, cpu < 90)\nout pick = random(ok)\nout any = random(table)\nfallback pick -> any\n",
	"policy d3\nout a = min(intersect(filter(table, cpu < 80), filter(table, bw > 10)), mem)\n",
}

var diffBadPolicies = []string{
	"policy broken\nout x = min(table, nosuchattr)\n", // validates against schema -> rejected
	"this is not a policy at all",                     // parse error
}

// diffPair is one wire/oracle engine pair sharing a config.
type diffPair struct {
	cli    *client.Client
	wire   *engine.Engine // behind the server
	oracle *engine.Engine // direct in-process
	pol    *policy.Policy // currently active policy (both sides)
}

func newDiffPair(t *testing.T, shards, capacity int, src string) *diffPair {
	t.Helper()
	mk := func() *engine.Engine {
		e, err := engine.New(engine.Config{
			Shards:   shards,
			Capacity: capacity,
			Schema:   diffSchema,
			Policy:   policy.MustParse(src),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e
	}
	wire, oracle := mk(), mk()
	srv, err := server.New(server.Config{Backend: wire})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	sock := t.TempDir() + "/diff.sock"
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	cli, info, err := client.Dial(client.Config{Network: "unix", Addr: sock, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	if int(info.Shards) != shards || int(info.Capacity) != capacity {
		t.Fatalf("hello reports %d shards cap %d, want %d/%d", info.Shards, info.Capacity, shards, capacity)
	}
	return &diffPair{cli: cli, wire: wire, oracle: oracle, pol: policy.MustParse(src)}
}

// oracleStatus maps a direct engine error to the wire status the server
// would report for the same op.
func oracleStatus(err error) byte {
	switch {
	case err == nil:
		return server.StatusOK
	case errors.Is(err, smbm.ErrReplicaDivergence):
		return server.StatusOK
	case errors.Is(err, engine.ErrClosed):
		return server.StatusClosed
	default:
		return server.StatusInvalid
	}
}

// step plays one random op on both sides and fails the test on any
// divergence. Returns a short op description for failure context.
func (p *diffPair) step(t *testing.T, r *rand.Rand, capacity int) string {
	t.Helper()
	switch k := r.Intn(10); {
	case k < 6: // decide batch
		n := 1 + r.Intn(8)
		keys := make([]uint64, n)
		outs := make([]uint16, n)
		pkts := make([]engine.Packet, n)
		nOut := len(p.pol.Outputs)
		for i := 0; i < n; i++ {
			keys[i] = r.Uint64()
			// Mostly valid outputs, occasionally out of range — both sides
			// must degrade the same way.
			out := r.Intn(nOut + 1)
			outs[i] = uint16(out)
			pkts[i] = engine.Packet{Key: keys[i], Out: out, ID: -1}
		}
		ids, err := p.cli.Decide(keys, outs, nil)
		if err != nil {
			t.Fatalf("wire decide: %v", err)
		}
		p.oracle.DecideBatch(pkts)
		for i := range pkts {
			want := int32(-1)
			if pkts[i].OK {
				want = int32(pkts[i].ID)
			}
			if ids[i] != want {
				t.Fatalf("decide[%d] key=%d out=%d: wire id %d, oracle %d",
					i, keys[i], outs[i], ids[i], want)
			}
		}
		return fmt.Sprintf("decide×%d", n)
	case k < 9: // table batch
		n := 1 + r.Intn(6)
		ops := make([]server.TableOp, n)
		for i := range ops {
			kind := byte(1 + r.Intn(4))
			op := server.TableOp{Kind: kind, ID: uint32(r.Intn(capacity + 4))}
			if kind != server.TableDelete {
				op.Vals = []int64{int64(r.Intn(100)), int64(r.Intn(8192)), int64(r.Intn(10000))}
			}
			ops[i] = op
		}
		sts, err := p.cli.Apply(ops, len(diffSchema.Attrs))
		if err != nil {
			t.Fatalf("wire apply: %v", err)
		}
		for i, op := range ops {
			var oerr error
			switch op.Kind {
			case server.TableAdd:
				oerr = p.oracle.Add(int(op.ID), op.Vals)
			case server.TableUpdate:
				oerr = p.oracle.Update(int(op.ID), op.Vals)
			case server.TableUpsert:
				oerr = p.oracle.Upsert(int(op.ID), op.Vals)
			case server.TableDelete:
				oerr = p.oracle.Delete(int(op.ID))
			}
			if want := oracleStatus(oerr); sts[i] != want {
				t.Fatalf("table op %d (%+v): wire status %d, oracle %d (%v)",
					i, op, sts[i], want, oerr)
			}
		}
		return fmt.Sprintf("table×%d", n)
	default: // hot-swap, sometimes invalid
		src := diffPolicies[r.Intn(len(diffPolicies))]
		if r.Intn(4) == 0 {
			src = diffBadPolicies[r.Intn(len(diffBadPolicies))]
		}
		werr := p.cli.SwapPolicy(src)
		var oerr error
		pol, perr := policy.Parse(src)
		if perr != nil {
			oerr = perr
		} else {
			oerr = p.oracle.SwapPolicy(pol)
		}
		if (werr == nil) != (oerr == nil) {
			t.Fatalf("swap %q: wire err %v, oracle err %v", src[:20], werr, oerr)
		}
		if oerr == nil {
			p.pol = pol
		}
		return "swap"
	}
}

// TestDifferentialWireVsOracle: 1000 seeded trials of mixed traffic, each on
// a fresh engine pair.
func TestDifferentialWireVsOracle(t *testing.T) {
	trials := 1000
	if testing.Short() {
		trials = 100
	}
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		shards := 1 + r.Intn(3)
		src := diffPolicies[r.Intn(len(diffPolicies))]
		ok := t.Run(fmt.Sprintf("seed%d", trial), func(t *testing.T) {
			const capacity = 16
			p := newDiffPair(t, shards, capacity, src)
			for op := 0; op < 16; op++ {
				p.step(t, r, capacity)
			}
		})
		if !ok {
			t.Fatalf("trial %d diverged (shards=%d, policy %q)", trial, shards, src[:12])
		}
	}
}

// TestDifferentialLongTrial: one 10k-op stream with interleaved hot-swaps on
// a larger pair, exercising long-run drift (write churn, steering, RNG
// streams) rather than breadth of seeds.
func TestDifferentialLongTrial(t *testing.T) {
	ops := 10000
	if testing.Short() {
		ops = 1000
	}
	const capacity = 64
	r := rand.New(rand.NewSource(4242))
	p := newDiffPair(t, 4, capacity, diffPolicies[2])
	for op := 0; op < ops; op++ {
		p.step(t, r, capacity)
	}
	// Both tables must agree at the end as a final integrity check.
	if ws, os := p.wire.Size(), p.oracle.Size(); ws != os {
		t.Fatalf("final table sizes diverged: wire %d, oracle %d", ws, os)
	}
}
