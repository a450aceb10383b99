package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestSpanRingRecordAndSnapshot(t *testing.T) {
	r := NewSpanRing("test", 8)
	r.Record(SpanDecide, 7, 100, 250, 64)
	r.Event(EventQuarantine, 0, 300, 2)
	spans := r.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot = %d spans, want 2", len(spans))
	}
	if spans[0].Kind != SpanDecide || spans[0].TraceID != 7 || spans[0].Start != 100 || spans[0].End != 250 || spans[0].Arg != 64 {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if spans[1].Kind != EventQuarantine || spans[1].Start != spans[1].End || spans[1].Arg != 2 {
		t.Fatalf("span 1 = %+v", spans[1])
	}
	if spans[0].Seq >= spans[1].Seq {
		t.Fatalf("snapshot out of record order: %d then %d", spans[0].Seq, spans[1].Seq)
	}
}

func TestSpanRingWraps(t *testing.T) {
	r := NewSpanRing("wrap", 4)
	for i := 0; i < 10; i++ {
		r.Record(SpanDecide, uint64(i+1), int64(i), int64(i), 0)
	}
	spans := r.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("snapshot = %d spans, want capacity 4", len(spans))
	}
	// The ring keeps the newest records: trace IDs 7..10.
	for i, sp := range spans {
		if want := uint64(7 + i); sp.TraceID != want {
			t.Fatalf("span %d trace = %d, want %d", i, sp.TraceID, want)
		}
	}
}

func TestSpanRingNilSafe(t *testing.T) {
	var r *SpanRing
	r.Record(SpanDecide, 1, 2, 3, 4) // must not panic
	r.Event(EventProtoErr, 0, 1, 0)
	if r.Snapshot() != nil {
		t.Fatal("nil ring snapshot should be nil")
	}
	if r.Name() != "" {
		t.Fatal("nil ring name should be empty")
	}
	var f *FlightRecorder
	f.Trip("nil") // must not panic
	if f.Ring("x", 4) != nil {
		t.Fatal("nil recorder should hand out nil rings")
	}
	if f.Snapshot() != nil || f.Trips() != 0 {
		t.Fatal("nil recorder snapshot/trips should be zero values")
	}
	if err := f.WriteJSON(&bytes.Buffer{}, "r"); err != nil {
		t.Fatal(err)
	}
}

func TestSpanRingConcurrentWriters(t *testing.T) {
	r := NewSpanRing("conc", 64)
	// Concurrent snapshots while 8 writers hammer the ring: the seqlock
	// must never yield a torn span (checked via the Arg/Start == TraceID
	// pairing every Record maintains).
	var writers sync.WaitGroup
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 5000; i++ {
				id := uint64(w)<<32 | uint64(i)
				r.Record(SpanDecide, id, int64(id), int64(id)+1, int64(id))
			}
		}(w)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, sp := range r.Snapshot() {
				if sp.Arg != int64(sp.TraceID) || sp.Start != int64(sp.TraceID) {
					t.Errorf("torn span: %+v", sp)
					return
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-readerDone
}

func TestSpanRingRecordZeroAlloc(t *testing.T) {
	r := NewSpanRing("alloc", 16)
	var i int64
	if n := testing.AllocsPerRun(100, func() {
		r.Record(SpanDecide, uint64(i), i, i+5, 64)
		i++
	}); n != 0 {
		t.Fatalf("SpanRing.Record allocates %v/run, want 0", n)
	}
	var nilRing *SpanRing
	if n := testing.AllocsPerRun(100, func() {
		nilRing.Record(SpanDecide, 1, 1, 2, 0)
	}); n != 0 {
		t.Fatalf("nil SpanRing.Record allocates %v/run, want 0", n)
	}
}

func TestHistogramExemplar(t *testing.T) {
	var h Histogram
	h.ObserveExemplar(1000, 0xabc) // bucket bits.Len64(1000) = 10
	h.ObserveExemplar(1001, 0xdef)
	h.ObserveExemplar(2, 0) // traceID 0: counted, no exemplar
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if got := h.Exemplar(10); got != 0xdef {
		t.Fatalf("exemplar(10) = %#x, want most recent 0xdef", got)
	}
	if got := h.Exemplar(2); got != 0 {
		t.Fatalf("exemplar(2) = %#x, want 0 (untraced)", got)
	}
	var nilH *Histogram
	nilH.ObserveExemplar(1, 1)
	if nilH.Exemplar(0) != 0 {
		t.Fatal("nil histogram exemplar should be 0")
	}
}

func TestHistogramObserveExemplarZeroAlloc(t *testing.T) {
	var h Histogram
	v := uint64(1)
	if n := testing.AllocsPerRun(100, func() {
		h.ObserveExemplar(v, v)
		v += 131
	}); n != 0 {
		t.Fatalf("ObserveExemplar allocates %v/run, want 0", n)
	}
}

func TestHistogramSnapshotCarriesExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("thanos_span_test_latency", "test")
	h.ObserveExemplar(900, 0x1234) // bucket 10, le 1023
	snap := r.Snapshot()
	hs, ok := snap["thanos_span_test_latency"].(HistogramSnapshot)
	if !ok {
		t.Fatalf("snapshot value = %T", snap["thanos_span_test_latency"])
	}
	if hs.Exemplars["1023"] != 0x1234 {
		t.Fatalf("exemplars = %v, want le 1023 -> 0x1234", hs.Exemplars)
	}
}

func TestFlightRecorderRingIdempotent(t *testing.T) {
	f := NewFlightRecorder()
	a := f.Ring("server", 8)
	b := f.Ring("server", 99)
	if a != b {
		t.Fatal("Ring should return the same ring per component name")
	}
	if a.Name() != "server" {
		t.Fatalf("ring name = %q", a.Name())
	}
}

func TestFlightRecorderDump(t *testing.T) {
	f := NewFlightRecorder()
	f.Ring("server", 8).Record(SpanEncode, 42, 10, 20, 0)
	f.Ring("engine", 8).Event(EventQuarantine, 0, 30, 1)
	var buf bytes.Buffer
	f.SetAutoDump(&buf)
	f.Trip("shard 1 quarantined")
	if f.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", f.Trips())
	}
	var dump struct {
		Reason     string `json:"reason"`
		Trips      uint64 `json:"trips"`
		Components map[string][]struct {
			Kind    string `json:"kind"`
			TraceID uint64 `json:"trace_id"`
		} `json:"components"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("dump is not JSON: %v\n%s", err, buf.Bytes())
	}
	if dump.Reason != "shard 1 quarantined" || dump.Trips != 1 {
		t.Fatalf("dump header = %+v", dump)
	}
	if len(dump.Components["server"]) != 1 || dump.Components["server"][0].Kind != "encode" || dump.Components["server"][0].TraceID != 42 {
		t.Fatalf("server component = %+v", dump.Components["server"])
	}
	if len(dump.Components["engine"]) != 1 || dump.Components["engine"][0].Kind != "quarantine" {
		t.Fatalf("engine component = %+v", dump.Components["engine"])
	}
}

func TestStitchTrace(t *testing.T) {
	comps := map[string][]Span{
		"client": {
			{Seq: 1, TraceID: 7, Kind: SpanEnqueue, Start: 100, End: 110},
			{Seq: 2, TraceID: 8, Kind: SpanEnqueue, Start: 105, End: 106},
			{Seq: 3, TraceID: 7, Kind: SpanReply, Start: 180, End: 200},
		},
		"server": {
			{Seq: 1, TraceID: 7, Kind: SpanEncode, Start: 170, End: 175},
			{Seq: 2, TraceID: 7, Kind: SpanDecide, Start: 140, End: 170},
			{Seq: 3, TraceID: 0, Kind: EventProtoErr, Start: 130, End: 130},
		},
	}
	got := StitchTrace(comps, 7)
	if len(got) != 4 {
		t.Fatalf("stitched %d spans, want 4", len(got))
	}
	wantKinds := []SpanKind{SpanEnqueue, SpanDecide, SpanEncode, SpanReply}
	for i, sp := range got {
		if sp.Kind != wantKinds[i] {
			t.Fatalf("stitched[%d].Kind = %v, want %v", i, sp.Kind, wantKinds[i])
		}
	}
	if StitchTrace(comps, 0) != nil {
		t.Fatal("trace ID 0 must stitch to nothing")
	}
}

func TestWriteSpanChromeTrace(t *testing.T) {
	comps := map[string][]Span{
		"client": {{Seq: 1, TraceID: 7, Kind: SpanEnqueue, Start: 1_000_000, End: 1_050_000}},
		"server": {
			{Seq: 1, TraceID: 7, Kind: SpanDecide, Start: 1_010_000, End: 1_040_000},
			{Seq: 2, Kind: EventQuarantine, Start: 1_020_000, End: 1_020_000, Arg: 3},
		},
	}
	var buf bytes.Buffer
	if err := WriteSpanChromeTrace(&buf, comps); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   uint64 `json:"ts"`
			Dur  uint64 `json:"dur"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) != 3 {
		t.Fatalf("events = %d, want 3", len(ct.TraceEvents))
	}
	var sawQuarantine, sawEnqueue bool
	for _, ev := range ct.TraceEvents {
		switch ev.Name {
		case "quarantine":
			sawQuarantine = true
			if ev.Ph != "i" {
				t.Fatalf("event span ph = %q, want instant", ev.Ph)
			}
		case "enqueue":
			sawEnqueue = true
			if ev.Ph != "X" || ev.Ts != 0 || ev.Dur != 50 {
				t.Fatalf("enqueue event = %+v (timestamps must rebase to 0)", ev)
			}
		}
	}
	if !sawQuarantine || !sawEnqueue {
		t.Fatalf("missing events in %s", buf.String())
	}
}

func TestSpanKindNames(t *testing.T) {
	for k := SpanEnqueue; k <= SpanReply; k++ {
		if k.String() == "unknown" || k.Event() {
			t.Fatalf("phase kind %d misclassified (%q, event=%v)", k, k.String(), k.Event())
		}
	}
	for _, k := range []SpanKind{EventQuarantine, EventResync, EventSwap, EventReconnect, EventProtoErr, EventConnOpen, EventConnClose, EventWriteTimeout} {
		if k.String() == "unknown" || !k.Event() {
			t.Fatalf("event kind %d misclassified (%q, event=%v)", k, k.String(), k.Event())
		}
	}
	if !strings.Contains(SpanKind(200).String(), "unknown") {
		t.Fatal("unknown kind should stringify as unknown")
	}
}
