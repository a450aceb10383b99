package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/policy"
	"repro/internal/telemetry"
)

// TestDecideSteersRoundRobin pins Engine.Decide's steering order: call i lands
// on shard i mod Shards, read from the per-shard decision counters.
func TestDecideSteersRoundRobin(t *testing.T) {
	const shards = 4
	e, err := New(Config{
		Shards:    shards,
		Capacity:  64,
		Schema:    testSchema,
		Policy:    policy.MustParse(minPolicySrc),
		Telemetry: telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	fillRandom(t, e, 32, 5)
	prev := make([]uint64, shards)
	for call := 0; call < 6*shards+3; call++ {
		if _, ok := e.Decide(); !ok {
			t.Fatalf("call %d: no decision", call)
		}
		for si, s := range e.shards {
			got, want := s.decCtr.Value()-prev[si], uint64(0)
			if si == call%shards {
				want = 1
			}
			if got != want {
				t.Fatalf("call %d: shard %d decided %d packets, want %d (round-robin)", call, si, got, want)
			}
			prev[si] += got
		}
	}
}

// TestDecideBatchSteersByKey pins DecideBatch's steering: a packet is decided
// on shard Key mod Shards, read from the per-shard decision counters, for
// power-of-two and other shard counts and keys at the 32- and 64-bit edges
// — one packet per batch, then all of them in one batch.
func TestDecideBatchSteersByKey(t *testing.T) {
	keys := []uint64{0, 1, 2, 3, 5, 1 << 32, 1<<32 + 3, 1<<63 + 5, math.MaxUint64 - 1, math.MaxUint64, 0x9E3779B97F4A7C15}
	for _, shards := range []int{1, 2, 3, 4, 6} {
		e, err := New(Config{
			Shards:    shards,
			Capacity:  64,
			Schema:    testSchema,
			Policy:    policy.MustParse(minPolicySrc),
			Telemetry: telemetry.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		fillRandom(t, e, 32, 5)
		decided := func() []uint64 {
			got := make([]uint64, shards)
			for si, s := range e.shards {
				got[si] = s.decCtr.Value()
			}
			return got
		}
		want := make([]uint64, shards)
		for _, key := range keys {
			before := decided()
			pkt := []Packet{{Key: key}}
			e.DecideBatch(pkt)
			if !pkt[0].OK {
				t.Fatalf("%d shards, key %#x: no decision", shards, key)
			}
			home := int(key % uint64(shards))
			want[home]++
			for si, n := range decided() {
				w := uint64(0)
				if si == home {
					w = 1
				}
				if d := n - before[si]; d != w {
					t.Fatalf("%d shards, key %#x: shard %d decided %d packets, want %d (home %d)", shards, key, si, d, w, home)
				}
			}
		}
		pkts := make([]Packet, len(keys))
		for i, key := range keys {
			pkts[i].Key = key
			want[key%uint64(shards)]++
		}
		e.DecideBatch(pkts)
		if got := decided(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%d shards, one batch: per-shard decisions %v, want %v", shards, got, want)
		}
	}
}
