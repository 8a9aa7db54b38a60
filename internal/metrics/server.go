package metrics

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// openMetricsContentType is the content type Prometheus negotiates for
// OpenMetrics text exposition.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Server bundles the registry and live tables one HTTP endpoint serves. It
// is a process's only diagnostics listener: metrics, run state, the flight
// recorder and the Go profiler all share its port.
type Server struct {
	// Registry backs /metrics (required).
	Registry *Registry
	// Runs backs /runs (optional; nil serves an empty table).
	Runs *RunTable
	// Recorder backs /flightrecorder (optional).
	Recorder *FlightRecorder
	// Healthy, when non-nil, gates /healthz; nil means always healthy.
	Healthy func() bool
}

// Handler returns the endpoint mux:
//
//	/metrics        OpenMetrics text exposition of every registered series
//	/healthz        liveness: 200 {"status":"ok"} (503 when Healthy() is false)
//	/runs           live JSON of per-run-key state (see RunTable)
//	/flightrecorder canonical JSONL dump of recent structured events
//	/debug/pprof/   the Go runtime profiles (net/http/pprof)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", openMetricsContentType)
		if err := s.Registry.WriteOpenMetrics(w); err != nil {
			// Headers are gone; nothing to do but drop the connection.
			return
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if s.Healthy != nil && !s.Healthy() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "{\"status\":\"unhealthy\",\"series\":%d}\n", s.Registry.Len())
			return
		}
		fmt.Fprintf(w, "{\"status\":\"ok\",\"series\":%d}\n", s.Registry.Len())
	})
	mux.HandleFunc("/runs", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := s.Runs.WriteJSON(w); err != nil {
			return
		}
	})
	mux.HandleFunc("/flightrecorder", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		s.Recorder.WriteTo(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the endpoint on addr (host:port; port 0 picks a free one)
// in a background goroutine and returns the bound address. The server
// lives until the process exits — it serves diagnostics, so tearing it
// down with the sweep would hide exactly the state a stuck shutdown needs.
func (s *Server) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}
