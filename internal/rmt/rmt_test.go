package rmt

import (
	"errors"
	"testing"
)

func probeParser(t *testing.T) *Parser {
	t.Helper()
	p, err := NewParser([]FieldSpec{
		{Name: "resource", Offset: 0, Width: 2},
		{Name: "util", Offset: 2, Width: 4},
		{Name: "delay", Offset: 6, Width: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParserValidation(t *testing.T) {
	bad := [][]FieldSpec{
		nil,
		{{Name: "", Offset: 0, Width: 1}},
		{{Name: "a", Offset: 0, Width: 1}, {Name: "a", Offset: 1, Width: 1}},
		{{Name: "a", Offset: -1, Width: 1}},
		{{Name: "a", Offset: 0, Width: 9}},
		{{Name: "a", Offset: 0, Width: 0}},
	}
	for i, specs := range bad {
		if _, err := NewParser(specs); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestParseSerializeRoundTrip(t *testing.T) {
	p := probeParser(t)
	fields := map[string]uint64{"resource": 7, "util": 123456, "delay": 99}
	data, err := p.Serialize(fields)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 10 {
		t.Fatalf("serialized length = %d", len(data))
	}
	got, err := p.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range fields {
		if got[k] != v {
			t.Errorf("field %s = %d, want %d", k, got[k], v)
		}
	}
}

func TestParseShortPacket(t *testing.T) {
	p := probeParser(t)
	if _, err := p.Parse(make([]byte, 5)); err == nil {
		t.Fatal("short packet should fail")
	}
}

func TestSerializeMissingField(t *testing.T) {
	p := probeParser(t)
	if _, err := p.Serialize(map[string]uint64{"resource": 1}); err == nil {
		t.Fatal("missing field should fail")
	}
}

func TestMatchTable(t *testing.T) {
	var hits, defaults int
	tbl, err := NewMatchTable("conn", []string{"src", "dst"}, 4,
		func(*PacketContext) { defaults++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Install([]uint64{1, 2}, func(ctx *PacketContext) {
		hits++
		ctx.Meta["server"] = 9
	}); err != nil {
		t.Fatal(err)
	}

	ctx := NewPacketContext()
	ctx.Fields["src"], ctx.Fields["dst"] = 1, 2
	hit, err := tbl.Apply(ctx)
	if err != nil || !hit {
		t.Fatalf("hit=%v err=%v", hit, err)
	}
	if ctx.Meta["server"] != 9 || hits != 1 {
		t.Fatal("action did not run")
	}

	ctx.Fields["dst"] = 3
	hit, err = tbl.Apply(ctx)
	if err != nil || hit {
		t.Fatalf("expected miss, hit=%v err=%v", hit, err)
	}
	if defaults != 1 {
		t.Fatal("default action did not run")
	}
}

func TestMatchTableMetadataKeys(t *testing.T) {
	tbl, _ := NewMatchTable("m", []string{"x"}, 2, nil)
	if err := tbl.Install([]uint64{5}, nil); err != nil {
		t.Fatal(err)
	}
	ctx := NewPacketContext()
	ctx.Meta["x"] = 5 // key resolved from metadata when absent in headers
	hit, err := tbl.Apply(ctx)
	if err != nil || !hit {
		t.Fatalf("metadata key lookup: hit=%v err=%v", hit, err)
	}
	delete(ctx.Meta, "x")
	if _, err := tbl.Apply(ctx); err == nil {
		t.Fatal("missing key field should error")
	}
}

func TestMatchTableCapacityAndRemove(t *testing.T) {
	tbl, _ := NewMatchTable("cap", []string{"k"}, 2, nil)
	if err := tbl.Install([]uint64{1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Install([]uint64{2}, nil); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Install([]uint64{3}, nil); err == nil {
		t.Fatal("over-capacity install should fail")
	}
	// Replacing an existing entry is fine at capacity.
	if err := tbl.Install([]uint64{2}, nil); err != nil {
		t.Fatalf("replace failed: %v", err)
	}
	if err := tbl.Remove([]uint64{1}); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if err := tbl.Install([]uint64{3}, nil); err != nil {
		t.Fatalf("install after remove failed: %v", err)
	}
}

func TestRegisterArraySingleAccess(t *testing.T) {
	ra, err := NewRegisterArray("q", 8)
	if err != nil {
		t.Fatal(err)
	}
	ra.BeginPacket()
	v, err := ra.Access(3, func(old int64) int64 { return old + 5 })
	if err != nil || v != 5 {
		t.Fatalf("first access: v=%d err=%v", v, err)
	}
	// Second access in the same packet violates the RMT constraint.
	if _, err := ra.Access(4, func(old int64) int64 { return old }); !errors.Is(err, ErrAccessViolation) {
		t.Fatalf("expected access violation, got %v", err)
	}
	// Next packet gets a fresh budget.
	ra.BeginPacket()
	if _, err := ra.Access(4, func(old int64) int64 { return old + 1 }); err != nil {
		t.Fatal(err)
	}
	if ra.Peek(3) != 5 || ra.Peek(4) != 1 {
		t.Fatal("register contents wrong")
	}
}

// TestRegisterArrayCannotScan demonstrates the motivating limitation of
// §2.2: a per-packet scan over all N registers — what a min-filter would
// need — hits the access violation on the second register.
func TestRegisterArrayCannotScan(t *testing.T) {
	ra, _ := NewRegisterArray("metrics", 16)
	ra.BeginPacket()
	violations := 0
	for i := 0; i < ra.Len(); i++ {
		if _, err := ra.Access(i, func(old int64) int64 { return old }); err != nil {
			violations++
		}
	}
	if violations != ra.Len()-1 {
		t.Fatalf("scan produced %d violations, want %d", violations, ra.Len()-1)
	}
}

func TestRegisterArrayBounds(t *testing.T) {
	ra, _ := NewRegisterArray("r", 2)
	ra.BeginPacket()
	if _, err := ra.Access(2, func(o int64) int64 { return o }); err == nil {
		t.Fatal("out-of-range access should fail")
	}
	if _, err := NewRegisterArray("bad", 0); err == nil {
		t.Fatal("zero-size array should fail")
	}
}

func TestQueueTracker(t *testing.T) {
	qt, err := NewQueueTracker(4)
	if err != nil {
		t.Fatal(err)
	}
	var changes []int64
	qt.OnChange = func(q int, l int64) {
		if q == 1 {
			changes = append(changes, l)
		}
	}
	qt.Enqueue(1)
	qt.Enqueue(1)
	qt.Dequeue(1)
	if qt.Len(1) != 1 {
		t.Fatalf("len = %d", qt.Len(1))
	}
	want := []int64{1, 2, 1}
	for i := range want {
		if changes[i] != want[i] {
			t.Fatalf("changes = %v", changes)
		}
	}
	// Stray dequeue clamps to zero.
	qt.Dequeue(2)
	if qt.Len(2) != 0 {
		t.Fatal("clamp failed")
	}
	if qt.NumQueues() != 4 {
		t.Fatal("NumQueues wrong")
	}
}

func TestQueueTrackerPanicsOutOfRange(t *testing.T) {
	qt, _ := NewQueueTracker(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range queue should panic")
		}
	}()
	qt.Enqueue(2)
}
