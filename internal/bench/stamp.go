package bench

// STAMP-shape throughput sweeps. Unlike the figure reproductions in this
// package, which drive whole TJ programs through the interpreter, these
// hit the STM runtimes' Go API directly, so interpreter dispatch cost does
// not damp the signal: the structured workloads in internal/workloads
// (vacation, kmeans, genome), whose access shapes echo the STAMP suite's
// contention profiles, run at 1, 2, 4, ... goroutines over every runtime in
// the stmapi registry. Each measurement also reports the validation profile
// (clock advances, fast-path hits, fallback walks). Results are
// JSON-serializable so cmd/stmbench -json can emit them.

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/conflict"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// StampSpec configures one STAMP-shape measurement.
type StampSpec struct {
	Workload   string `json:"workload"`         // vacation, kmeans, genome
	Versioning string `json:"versioning"`       // runtime name (stmapi.Runtimes)
	Policy     string `json:"policy,omitempty"` // contention policy; empty = backoff
	Goroutines int    `json:"goroutines"`
	Txns       int    `json:"txns"` // committed transactions demanded, total
}

// StampResult is one measurement, flattened for JSON output.
type StampResult struct {
	StampSpec
	ElapsedNs  int64   `json:"elapsed_ns"`
	NsPerTxn   float64 `json:"ns_per_op"`
	TxnsPerSec float64 `json:"txns_per_sec"`
	Starts     int64   `json:"starts"`
	Commits    int64   `json:"commits"`
	Aborts     int64   `json:"aborts"`
	Retries    int64   `json:"retries"`

	ClockAdvances       int64 `json:"clock_advances,omitempty"`
	FastpathValidations int64 `json:"fastpath_validations,omitempty"`
	FallbackWalks       int64 `json:"fallback_walks,omitempty"`

	// Multi-version profile (mvstm has no validation step; these are its
	// equivalent activity signal).
	SnapshotReads int64 `json:"snapshot_reads,omitempty"`
	ReadOnlyTxns  int64 `json:"read_only_txns,omitempty"`
}

// Option customizes RunStamp and RunCrash beyond the JSON-serializable spec
// (observability hooks; the spec stays a plain config record).
type Option func(*options)

type options struct {
	tracer    *trace.Tracer
	onRuntime func(stmapi.Runtime)
}

// WithTracer installs t on the runtime each measurement creates, so a
// sweep's conflicts, hotspots, and latency histograms accumulate into one
// tracer.
func WithTracer(t *trace.Tracer) Option {
	return func(o *options) { o.tracer = t }
}

// WithRuntime calls f with each runtime a measurement creates, before any
// transaction runs (metrics registration and the like). The hook receives
// the registry-built stmapi.Runtime regardless of which runtime the spec
// named; callers needing a concrete surface probe with a type assertion.
func WithRuntime(f func(stmapi.Runtime)) Option {
	return func(o *options) { o.onRuntime = f }
}

// attach hands a freshly built runtime what opts carry, before any
// transaction runs on it.
func attach(api stmapi.Runtime, opts []Option) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.onRuntime != nil {
		o.onRuntime(api)
	}
	if o.tracer != nil {
		api.SetTracer(o.tracer)
	}
}

// splitmix advances a SplitMix64 state and returns the next value.
func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// GoroutineSweep returns 1, 2, 4, ... up to max, always including max
// itself (so a 6-core host measures 1, 2, 4, 6).
func GoroutineSweep(max int) []int {
	if max < 1 {
		max = 1
	}
	var out []int
	for g := 1; g < max; g *= 2 {
		out = append(out, g)
	}
	return append(out, max)
}

func (s *StampSpec) defaults() {
	if s.Workload == "" {
		s.Workload = "vacation"
	}
	if s.Versioning == "" {
		s.Versioning = "eager"
	}
	if s.Goroutines <= 0 {
		s.Goroutines = 1
	}
	if s.Txns <= 0 {
		s.Txns = 100_000
	}
}

// RunStamp executes one STAMP-shape measurement: the workload's structures
// are built on a fresh heap, then Txns transactions are split across
// Goroutines workers, each running the workload body.
func RunStamp(spec StampSpec, opts ...Option) (StampResult, error) {
	spec.defaults()
	h := objmodel.NewHeap()
	w, err := workloads.NewStamp(spec.Workload, h)
	if err != nil {
		return StampResult{}, fmt.Errorf("bench: %w", err)
	}
	pol, err := conflict.ByName(spec.Policy)
	if err != nil {
		return StampResult{}, fmt.Errorf("bench: %w", err)
	}

	// Every runtime is built by name through the stmapi registry and driven
	// through the uniform surface; an unrecognized Versioning fails fast
	// with the registry's error listing what is available.
	api, err := stmapi.New(spec.Versioning, h, stmapi.CommonConfig{Handler: pol})
	if err != nil {
		return StampResult{}, fmt.Errorf("bench: %w", err)
	}
	attach(api, opts)

	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < spec.Goroutines; g++ {
		n := spec.Txns / spec.Goroutines
		if g < spec.Txns%spec.Goroutines {
			n++
		}
		wg.Add(1)
		go func(seed uint64, n int) {
			defer wg.Done()
			rng := seed*2862933555777941757 + 3037000493
			// One body closure per worker, not per transaction: it escapes
			// through the stmapi interface call, and a per-transaction
			// allocation here would mask the runtimes' zero-alloc hot path.
			body := func(tx stmapi.Txn) error {
				w.Body(tx, &rng)
				return nil
			}
			for i := 0; i < n; i++ {
				splitmix(&rng)
				_ = api.Atomic(body)
			}
		}(uint64(g+1), n)
	}
	wg.Wait()
	elapsed := time.Since(start)

	s := api.Stats()
	res := StampResult{
		StampSpec:           spec,
		ElapsedNs:           elapsed.Nanoseconds(),
		NsPerTxn:            float64(elapsed.Nanoseconds()) / float64(spec.Txns),
		Starts:              s.Starts,
		Commits:             s.Commits,
		Aborts:              s.Aborts,
		Retries:             s.Starts - s.Commits,
		ClockAdvances:       s.ClockAdvances,
		FastpathValidations: s.FastpathValidations,
		FallbackWalks:       s.FallbackWalks,
		SnapshotReads:       s.SnapshotReads,
		ReadOnlyTxns:        s.ReadOnlyTxns,
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.TxnsPerSec = float64(spec.Txns) / secs
	}
	return res, nil
}

// StampSpecs enumerates the sweep: each workload on each registered runtime
// at each goroutine count.
func StampSpecs(maxGoroutines, txns int) []StampSpec {
	var specs []StampSpec
	for _, versioning := range stmapi.Runtimes() {
		for _, name := range workloads.StampNames() {
			for _, g := range GoroutineSweep(maxGoroutines) {
				specs = append(specs, StampSpec{
					Workload:   name,
					Versioning: versioning,
					Goroutines: g,
					Txns:       txns,
				})
			}
		}
	}
	return specs
}

// RunStampSweep runs every spec and returns the results. Options apply to
// every measurement.
func RunStampSweep(specs []StampSpec, opts ...Option) ([]StampResult, error) {
	results := make([]StampResult, 0, len(specs))
	for _, spec := range specs {
		res, err := RunStamp(spec, opts...)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

// FormatStamp renders results as a table: one row per workload/runtime, one
// column per goroutine count, txns/sec in each cell.
func FormatStamp(results []StampResult) string {
	type key struct{ workload, versioning string }
	cols := make(map[int]bool)
	cells := make(map[key]map[int]StampResult)
	var order []key
	for _, r := range results {
		k := key{r.Workload, r.Versioning}
		if cells[k] == nil {
			cells[k] = make(map[int]StampResult)
			order = append(order, k)
		}
		cells[k][r.Goroutines] = r
		cols[r.Goroutines] = true
	}
	var gs []int
	for g := 1; g <= 1<<20; g++ {
		if cols[g] {
			gs = append(gs, g)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "STAMP-shape throughput (txns/sec; aborts in parens)\n")
	fmt.Fprintf(&b, "%-24s", "workload/runtime")
	for _, g := range gs {
		fmt.Fprintf(&b, " %14dg", g)
	}
	b.WriteByte('\n')
	for _, k := range order {
		fmt.Fprintf(&b, "%-24s", k.workload+"/"+k.versioning)
		for _, g := range gs {
			r, ok := cells[k][g]
			if !ok {
				fmt.Fprintf(&b, " %15s", "-")
				continue
			}
			fmt.Fprintf(&b, " %9s (%s)", human(int64(r.TxnsPerSec)), human(r.Aborts))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
