package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}

	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}

	// Nil receivers must be inert so uninstrumented datapaths need no guards.
	var nc *Counter
	nc.Inc()
	nc.Add(5)
	if nc.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	var ng *Gauge
	ng.Set(9)
	ng.Add(1)
	if ng.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
	var nh *Histogram
	nh.Observe(3)
	if nh.Count() != 0 || nh.Sum() != 0 {
		t.Fatal("nil histogram should stay empty")
	}
}

func TestCounterPadding(t *testing.T) {
	// Padded slots: consecutive shard counters must sit on distinct cache
	// lines, i.e. the per-shard stride must be a full 64 bytes.
	if sz := unsafe.Sizeof(Counter{}); sz != 64 {
		t.Fatalf("Counter size = %d bytes, want 64", sz)
	}
	if sz := unsafe.Sizeof(Gauge{}); sz != 64 {
		t.Fatalf("Gauge size = %d bytes, want 64", sz)
	}
}

func TestShardedCounterSum(t *testing.T) {
	s := NewShardedCounter(3)
	s.Shard(0).Add(1)
	s.Shard(1).Add(10)
	s.Shard(2).Add(100)
	if got := s.Value(); got != 111 {
		t.Fatalf("sharded sum = %d, want 111", got)
	}
	if s.Shards() != 3 {
		t.Fatalf("shards = %d, want 3", s.Shards())
	}
	if NewShardedCounter(0).Shards() != 1 {
		t.Fatal("shard count should clamp to 1")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)  // bits.Len64(0)=0  -> bucket 0 (le 0)
	h.Observe(1)  // len=1 -> bucket 1 (le 1)
	h.Observe(5)  // len=3 -> bucket 3 (le 7)
	h.Observe(7)  // len=3 -> bucket 3
	h.Observe(64) // len=7 -> bucket 7 (le 127)
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 77 {
		t.Fatalf("sum = %d, want 77", h.Sum())
	}
	want := map[int]uint64{0: 1, 1: 1, 3: 2, 7: 1}
	for i := 0; i < NumBuckets; i++ {
		if h.Bucket(i) != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, h.Bucket(i), want[i])
		}
	}
	if BucketBound(3) != 7 {
		t.Fatalf("BucketBound(3) = %d, want 7", BucketBound(3))
	}
	if BucketBound(64) != ^uint64(0) {
		t.Fatal("bucket 64 should be unbounded")
	}
}

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("thanos_test_ops_total", "ops")
	g := r.NewGauge("thanos_test_depth", "depth")
	r.NewGaugeFunc("thanos_test_fn", "fn", func() int64 { return 13 })
	h := r.NewHistogram("thanos_test_cycles", "cycles")
	s := r.NewShardedCounter("thanos_test_sharded_total", "sharded", 2)

	c.Add(3)
	g.Set(-2)
	h.Observe(1)
	h.Observe(6)
	s.Shard(0).Inc()
	s.Shard(1).Add(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE thanos_test_ops_total counter",
		"thanos_test_ops_total 3",
		"# TYPE thanos_test_depth gauge",
		"thanos_test_depth -2",
		"thanos_test_fn 13",
		"# TYPE thanos_test_cycles histogram",
		`thanos_test_cycles_bucket{le="1"} 1`,
		`thanos_test_cycles_bucket{le="7"} 2`,
		`thanos_test_cycles_bucket{le="+Inf"} 2`,
		"thanos_test_cycles_sum 7",
		"thanos_test_cycles_count 2",
		"# TYPE thanos_test_sharded_total counter",
		"thanos_test_sharded_total 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("a_total", "")
	c.Add(9)
	h := r.NewHistogram("b_cycles", "")
	h.Observe(3)
	snap := r.Snapshot()
	if snap["a_total"].(uint64) != 9 {
		t.Fatalf("snapshot a_total = %v", snap["a_total"])
	}
	hs := snap["b_cycles"].(HistogramSnapshot)
	if hs.Count != 1 || hs.Sum != 3 || hs.Buckets["3"] != 1 {
		t.Fatalf("snapshot histogram = %+v", hs)
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "a_total" || names[1] != "b_cycles" {
		t.Fatalf("names = %v", names)
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("ok_name", "")
	for _, bad := range []string{"", "1abc", "has space", "has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q should panic", bad)
				}
			}()
			r.NewCounter(bad, "")
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate name should panic")
			}
		}()
		r.NewCounter("ok_name", "")
	}()
}

func TestConcurrentIncrementsAndScrapes(t *testing.T) {
	r := NewRegistry()
	s := r.NewShardedCounter("c_total", "", 4)
	h := r.NewHistogram("h_cycles", "")
	const perShard = 10000
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := s.Shard(i)
			for j := 0; j < perShard; j++ {
				c.Inc()
				h.Observe(uint64(j))
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 50; k++ {
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := s.Value(); got != 4*perShard {
		t.Fatalf("sharded total = %d, want %d", got, 4*perShard)
	}
	if h.Count() != 4*perShard {
		t.Fatalf("histogram count = %d, want %d", h.Count(), 4*perShard)
	}
}

func TestStatsBundles(t *testing.T) {
	r := NewRegistry()
	tables := NewTableStats(r, "thanos_tbl", 2)
	if len(tables) != 2 {
		t.Fatalf("table handles = %d, want 2", len(tables))
	}
	tables[0].Adds.Inc()
	tables[1].Adds.Inc()
	tables[0].Size.Set(5)
	snap := r.Snapshot()
	if snap["thanos_tbl_adds_total"].(uint64) != 2 {
		t.Fatalf("adds = %v", snap["thanos_tbl_adds_total"])
	}
	if snap["thanos_tbl_size"].(int64) != 5 {
		t.Fatalf("size = %v", snap["thanos_tbl_size"])
	}

	chains := NewChainStats(r, "thanos_chain", []string{"table", "min(table, cpu)"}, 2)
	if chains[0].Steps() != 2 {
		t.Fatalf("steps = %d, want 2", chains[0].Steps())
	}
	chains[0].Invocations[1].Inc()
	chains[1].Invocations[1].Inc()
	chains[0].Candidates[1].Add(10)
	snap = r.Snapshot()
	if snap["thanos_chain_step1_invocations_total"].(uint64) != 2 {
		t.Fatalf("chain invocations = %v", snap["thanos_chain_step1_invocations_total"])
	}
	if snap["thanos_chain_step1_candidates_total"].(uint64) != 10 {
		t.Fatalf("chain candidates = %v", snap["thanos_chain_step1_candidates_total"])
	}

	dec := NewDecideStats(r, "thanos_dec", 1)[0]
	dec.Decisions.Inc()
	dec.LatencyCycles.Observe(12)
	if dec.LatencyCycles.Count() != 1 {
		t.Fatal("decide latency histogram should record")
	}
}
