package telemetry

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
	"sort"
)

// Handler serves the registry in Prometheus text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// PublishExpvar publishes the registry's Snapshot under name in the
// process-wide expvar namespace (served at /debug/vars). Publishing twice
// under the same name is a no-op rather than expvar's panic, so tests and
// restart loops can call it freely; the first registry to claim a name
// keeps it.
func (r *Registry) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// MuxConfig configures NewMux. Registry is required; everything else is
// optional and its endpoints degrade to empty sets when absent.
type MuxConfig struct {
	// Registry backs /metrics and /debug/vars.
	Registry *Registry
	// Traces supplies the engine's sampled decision traces per request
	// (/trace, /trace/chrome).
	Traces func() []Trace
	// Flight exposes the flight recorder's recent spans on /debug/thanos
	// and /debug/thanos/chrome.
	Flight *FlightRecorder
	// Introspect maps component names to live-status callbacks; each runs
	// per /debug/thanos request and its result is embedded under its name.
	// Callbacks run on the scrape path and may take control-plane locks.
	Introspect map[string]func() any
	// Pprof mounts net/http/pprof under /debug/pprof/ so CPU/heap profiles
	// can be pulled from a live server.
	Pprof bool
}

// NewMux assembles the full observability surface:
//
//	/metrics              Prometheus text format
//	/debug/vars           expvar JSON (registry snapshot published as "thanos")
//	/trace                sampled decision traces as JSON
//	/trace/chrome         the same traces in Chrome trace_event format
//	/debug/thanos         live introspection: component status + flight recorder
//	/debug/thanos/chrome  flight-recorder spans as a Chrome trace
//	/debug/pprof/         net/http/pprof (only with cfg.Pprof)
//
// All endpoints are scrape-path only — they allocate freely and never
// touch the packet path.
func NewMux(cfg MuxConfig) *http.ServeMux {
	cfg.Registry.PublishExpvar("thanos")
	mux := http.NewServeMux()
	mux.Handle("/metrics", cfg.Registry.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	traces := cfg.Traces
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var ts []Trace
		if traces != nil {
			ts = traces()
		}
		_ = WriteTraceJSON(w, ts)
	})
	mux.HandleFunc("/trace/chrome", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var ts []Trace
		if traces != nil {
			ts = traces()
		}
		_ = WriteChromeTrace(w, ts)
	})
	mux.HandleFunc("/debug/thanos", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = writeIntrospection(w, cfg)
	})
	mux.HandleFunc("/debug/thanos/chrome", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteSpanChromeTrace(w, cfg.Flight.Snapshot())
	})
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// introspection is the JSON shape of /debug/thanos.
type introspection struct {
	Components map[string]any        `json:"components,omitempty"`
	Flight     map[string][]spanJSON `json:"flight,omitempty"`
	Trips      uint64                `json:"flight_trips"`
}

func writeIntrospection(w http.ResponseWriter, cfg MuxConfig) error {
	out := introspection{Trips: cfg.Flight.Trips()}
	if len(cfg.Introspect) > 0 {
		out.Components = make(map[string]any, len(cfg.Introspect))
		names := make([]string, 0, len(cfg.Introspect))
		for name := range cfg.Introspect {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			out.Components[name] = cfg.Introspect[name]()
		}
	}
	if cfg.Flight != nil {
		out.Flight = make(map[string][]spanJSON)
		for name, spans := range cfg.Flight.Snapshot() {
			js := make([]spanJSON, len(spans))
			for i, sp := range spans {
				js[i] = spanJSON{Span: sp, KindName: sp.Kind.String()}
			}
			out.Flight[name] = js
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
