package telemetry

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func newTestMux(t *testing.T) (*httptest.Server, *Registry) {
	t.Helper()
	r := NewRegistry()
	c := r.NewCounter("thanos_http_test_total", "scrape test counter")
	c.Add(5)
	tr := NewTracer(1, 4, 0)
	s := tr.Sample()
	s.AddStage("table", 8, 0)
	s.Finish(0, 2, true)
	srv := httptest.NewServer(NewMux(MuxConfig{Registry: r, Traces: tr.Snapshot}))
	t.Cleanup(srv.Close)
	return srv, r
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestMux(t)
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "thanos_http_test_total 5") {
		t.Fatalf("metrics body missing counter:\n%s", raw)
	}
}

func TestExpvarEndpoint(t *testing.T) {
	srv, _ := newTestMux(t)
	resp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	raw, ok := vars["thanos"]
	if !ok {
		t.Fatalf("expvar missing thanos key; got keys %v", keysOf(vars))
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap["thanos_http_test_total"].(float64) != 5 {
		t.Fatalf("expvar snapshot = %v", snap)
	}
}

func TestTraceEndpoints(t *testing.T) {
	srv, _ := newTestMux(t)

	resp, err := srv.Client().Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var traces []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 || traces[0]["id"].(float64) != 2 {
		t.Fatalf("traces = %v", traces)
	}

	resp2, err := srv.Client().Get(srv.URL + "/trace/chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&chrome); err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) != 2 {
		t.Fatalf("chrome events = %d, want 2 (decide + 1 stage)", len(chrome.TraceEvents))
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	// Second publish under the same name must not panic (expvar.Publish
	// normally does); the first registration keeps the name.
	r.PublishExpvar("thanos_test_idempotent")
	r.PublishExpvar("thanos_test_idempotent")
}

// newIntrospectMux builds a full-surface mux: registry, flight recorder with
// one populated ring, an introspection callback, and pprof.
func newIntrospectMux(t *testing.T) (*httptest.Server, *FlightRecorder) {
	t.Helper()
	r := NewRegistry()
	fl := NewFlightRecorder()
	ring := fl.Ring("server", 16)
	ring.Record(SpanDecide, 0xbeef, 1000, 3000, 8)
	ring.Event(EventQuarantine, 0, 4000, 2)
	srv := httptest.NewServer(NewMux(MuxConfig{
		Registry: r,
		Flight:   fl,
		Introspect: map[string]func() any{
			"engine": func() any { return map[string]int{"shards": 4} },
		},
		Pprof: true,
	}))
	t.Cleanup(srv.Close)
	return srv, fl
}

func TestIntrospectionEndpoint(t *testing.T) {
	srv, fl := newIntrospectMux(t)
	fl.Trip("test")
	resp, err := srv.Client().Get(srv.URL + "/debug/thanos")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Components map[string]json.RawMessage `json:"components"`
		Flight     map[string][]struct {
			Kind    string `json:"kind"`
			TraceID uint64 `json:"trace_id"`
		} `json:"flight"`
		Trips uint64 `json:"flight_trips"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if _, ok := got.Components["engine"]; !ok {
		t.Fatalf("components missing engine: %v", got.Components)
	}
	spans := got.Flight["server"]
	if len(spans) != 2 || spans[0].Kind != "decide" || spans[0].TraceID != 0xbeef ||
		spans[1].Kind != "quarantine" {
		t.Fatalf("flight spans = %+v", spans)
	}
	if got.Trips != 1 {
		t.Fatalf("flight_trips = %d, want 1", got.Trips)
	}
}

func TestIntrospectionChromeEndpoint(t *testing.T) {
	srv, _ := newIntrospectMux(t)
	resp, err := srv.Client().Get(srv.URL + "/debug/thanos/chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chrome); err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) != 2 {
		t.Fatalf("chrome events = %d, want 2", len(chrome.TraceEvents))
	}
}

func TestPprofEndpointGated(t *testing.T) {
	srv, _ := newIntrospectMux(t)
	resp, err := srv.Client().Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof-enabled mux: status = %d", resp.StatusCode)
	}
	// Without Pprof the path must not be mounted.
	plain := httptest.NewServer(NewMux(MuxConfig{Registry: NewRegistry()}))
	defer plain.Close()
	resp2, err := plain.Client().Get(plain.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == 200 {
		t.Fatal("pprof served without cfg.Pprof")
	}
}

// TestMuxConcurrentScrapeAndRecord hammers every endpoint while writers
// pound the flight ring and the histogram, and the recorder trips
// mid-scrape. Run under -race at GOMAXPROCS=1 and 4; any torn read in the
// seqlock or snapshot paths shows up here.
func TestMuxConcurrentScrapeAndRecord(t *testing.T) {
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		r := NewRegistry()
		hist := r.NewHistogram("thanos_test_lat", "test latencies")
		fl := NewFlightRecorder()
		fl.SetAutoDump(io.Discard)
		ring := fl.Ring("server", 32)
		srv := httptest.NewServer(NewMux(MuxConfig{
			Registry: r,
			Flight:   fl,
			Introspect: map[string]func() any{
				"static": func() any { return 1 },
			},
		}))

		stop := make(chan struct{})
		var writers sync.WaitGroup
		for w := 0; w < 4; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				for i := int64(1); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					id := uint64(w)<<32 | uint64(i)
					ring.Record(SpanDecide, id, i, i+10, int64(w))
					hist.ObserveExemplar(uint64(i%2048), id)
					if i%512 == 0 {
						fl.Trip("stress")
					}
				}
			}(w)
		}
		var scrapers sync.WaitGroup
		for g := 0; g < 3; g++ {
			scrapers.Add(1)
			go func() {
				defer scrapers.Done()
				paths := []string{"/metrics", "/debug/thanos", "/debug/thanos/chrome", "/debug/vars"}
				for i := 0; i < 20; i++ {
					resp, err := srv.Client().Get(srv.URL + paths[i%len(paths)])
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
		}
		scrapers.Wait()
		close(stop)
		writers.Wait()
		srv.Close()
		runtime.GOMAXPROCS(old)
	}
}

func keysOf(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
