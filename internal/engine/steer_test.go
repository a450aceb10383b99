package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/policy"
	"repro/internal/telemetry"
)

// TestRebuildSteeringFailoverMap pins the exact failover map: a healthy shard
// serves itself, and the k-th quarantined home in shard order fails over to
// the (k mod live)-th healthy shard in shard order. Each map is rebuilt
// repeatedly, so an order that depends on anything but the shard indices
// (a map walk, a rand draw) shows up as a differing entry.
func TestRebuildSteeringFailoverMap(t *testing.T) {
	for _, tc := range []struct {
		shards int
		dead   []int
		want   []int32
	}{
		{4, nil, []int32{0, 1, 2, 3}},
		{4, []int{1, 3}, []int32{0, 0, 2, 2}},
		{6, []int{1, 3, 4}, []int32{0, 0, 2, 2, 5, 5}},
		{8, []int{0, 2, 3, 6}, []int32{1, 1, 4, 5, 4, 5, 7, 7}},
		{5, []int{0, 1, 2, 3}, []int32{4, 4, 4, 4, 4}},
		{3, []int{0, 1, 2}, []int32{-1, -1, -1}},
	} {
		e := newTestEngine(t, tc.shards, minPolicySrc)
		for _, si := range tc.dead {
			e.shards[si].health.Store(int32(Quarantined))
		}
		for rep := 0; rep < 16; rep++ {
			e.wmu.Lock()
			e.rebuildSteering()
			e.wmu.Unlock()
			st := e.steer.Load()
			if got, want := fmt.Sprint(st.to), fmt.Sprint(tc.want); got != want {
				t.Fatalf("%d shards, %v quarantined, rebuild %d: steering %s, want %s", tc.shards, tc.dead, rep, got, want)
			}
			if st.live != tc.shards-len(tc.dead) {
				t.Fatalf("%d shards, %v quarantined: live %d, want %d", tc.shards, tc.dead, st.live, tc.shards-len(tc.dead))
			}
		}
	}
}

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
