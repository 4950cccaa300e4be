// Package metrics exports live STM runtime state over HTTP: a Registry of
// named runtimes serves point-in-time JSON snapshots (counters from
// Stats.Snapshot plus, when a tracer is installed, the trace.Snapshot with
// hotspots and latency percentiles) at /metrics, and the same data through
// the standard expvar mechanism at /debug/vars.
//
// The exporter is strictly read-side: collecting a snapshot sums sharded
// counters and walks the tracer's aggregates, never blocking a running
// transaction. cmd/stmtop polls the /metrics endpoint and renders rates;
// stmbench -metrics-addr serves it while a sweep runs.
package metrics

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/causal"
	"repro/internal/durable"
	"repro/internal/stmapi"
	"repro/internal/trace"
)

// HotspotTopN is how many hotspot entries a collected snapshot carries.
const HotspotTopN = 10

// RuntimeSnapshot is one runtime's exported state at one instant.
type RuntimeSnapshot struct {
	Name   string               `json:"name"`
	Kind   string               `json:"kind"` // runtime name (stmapi.Runtimes)
	UnixNs int64                `json:"unix_ns"`
	Stats  map[string]int64     `json:"stats"`
	Trace  *trace.Snapshot      `json:"trace,omitempty"`  // nil when no tracer installed
	Causal *causal.LiveSnapshot `json:"causal,omitempty"` // nil unless a causal.Recorder is the tracer's sink

	// Durability is the WAL/checkpoint profile, present only for runtimes
	// registered through RegisterStore (a durable.Store-backed runtime).
	Durability *durable.DurabilitySnapshot `json:"durability,omitempty"`
}

// Collector produces a RuntimeSnapshot on demand.
type Collector func() RuntimeSnapshot

// Registry holds named collectors and serves their snapshots. Registering
// a name again replaces the previous collector (the bench sweeps create a
// fresh runtime per measurement and re-register it under a stable name).
type Registry struct {
	mu     sync.Mutex
	order  []string
	byName map[string]Collector
}

// NewRegistry creates an empty Registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Collector)}
}

// Register installs c under name, replacing any previous collector with
// the same name.
func (r *Registry) Register(name string, c Collector) {
	r.mu.Lock()
	if _, ok := r.byName[name]; !ok {
		r.order = append(r.order, name)
	}
	r.byName[name] = c
	r.mu.Unlock()
}

// RegisterRuntime exports any stmapi.Runtime under name. The counter set is
// whatever the runtime's Stats().Fields() enumerates, so new counters (policy
// self-aborts, dooms) appear in every exporter without touching this package.
func (r *Registry) RegisterRuntime(name string, rt stmapi.Runtime) {
	r.Register(name, func() RuntimeSnapshot { return collectRuntime(name, rt) })
}

// RegisterStore exports a durable.Store's runtime under name, with the
// store's WAL/checkpoint profile attached as the snapshot's durability line.
func (r *Registry) RegisterStore(name string, s *durable.Store) {
	rt := s.Runtime()
	r.Register(name, func() RuntimeSnapshot {
		snap := collectRuntime(name, rt)
		d := s.Durability()
		snap.Durability = &d
		return snap
	})
}

func collectRuntime(name string, rt stmapi.Runtime) RuntimeSnapshot {
	s := rt.Stats()
	stats := make(map[string]int64)
	for _, f := range s.Fields() {
		stats[f.Name] = f.Value
	}
	snap := RuntimeSnapshot{
		Name: name, Kind: rt.Name(), UnixNs: time.Now().UnixNano(),
		Stats: stats,
	}
	if t := rt.Tracer(); t != nil {
		ts := t.Snapshot(HotspotTopN)
		snap.Trace = &ts
		if rec, ok := t.Sink().(*causal.Recorder); ok {
			ls := rec.Live()
			snap.Causal = &ls
		}
	}
	return snap
}

// Snapshot collects every registered runtime, in registration order.
func (r *Registry) Snapshot() []RuntimeSnapshot {
	r.mu.Lock()
	collectors := make([]Collector, 0, len(r.order))
	for _, name := range r.order {
		collectors = append(collectors, r.byName[name])
	}
	r.mu.Unlock()
	out := make([]RuntimeSnapshot, 0, len(collectors))
	for _, c := range collectors {
		out = append(out, c())
	}
	return out
}

// Handler serves the registry's snapshots as a JSON array.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}

// PublishExpvar exposes the registry through package expvar under name
// (visible at /debug/vars on any mux carrying expvar.Handler). Publishing
// an already-published name is a no-op rather than the expvar panic.
func (r *Registry) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// Server is a live metrics endpoint bound to a listener.
type Server struct {
	Addr string // actual listen address (useful with ":0")
	ln   net.Listener
	srv  *http.Server
}

// Serve starts an HTTP server on addr with /metrics (the registry's JSON)
// and /debug/vars (expvar). It returns once the listener is bound; the
// server runs until Close.
func (r *Registry) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return &Server{Addr: ln.Addr().String(), ln: ln, srv: srv}, nil
}

// Close stops the server and its listener.
func (s *Server) Close() error { return s.srv.Close() }
