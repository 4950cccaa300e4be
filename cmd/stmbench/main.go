// Command stmbench regenerates the paper's evaluation figures on the host
// machine. Each -fig value corresponds to a table or figure of the paper:
//
//	stmbench -fig 6            anomaly matrix (Section 2, Figure 6)
//	stmbench -fig 13           static barrier-removal counts (Figure 13)
//	stmbench -fig 15           strong-atomicity overhead, both barriers
//	stmbench -fig 16           read-barrier-only overhead
//	stmbench -fig 17           write-barrier-only overhead
//	stmbench -fig 18           Tsp scalability
//	stmbench -fig 19           OO7 scalability
//	stmbench -fig 20           JBB scalability
//	stmbench -fig stamp        STAMP-shape workload sweep (vacation/kmeans/genome)
//	stmbench -fig crash        crash-recovery robustness run (orphan injection)
//	stmbench -fig elide        barrier-elision A/B (stmvet manifest off/on + soundness oracle)
//	stmbench -fig all          everything
//
// The elide figure builds its manifest in-process from the elidewl
// workload package (or loads one with -manifest FILE) and certifies it
// with the soundness oracle; any breach fails the run:
//
//	stmbench -fig elide -json > BENCH_010.json
//	stmvet elide -o m.json ./internal/workloads/elidewl && stmbench -fig elide -manifest m.json
//
// An unknown -fig value is an error that lists the known figures, and a
// -scale, -maxthreads, -reps or -partxns below 1 is an error naming the
// flag. Flags -scale and -maxthreads stretch the workloads; -reps controls
// timed repetitions per configuration. The stamp sweep drives the STM
// runtimes' Go API directly at growing goroutine counts, -partxns
// transactions per cell; with -json its results are emitted as a JSON array
// (workload, runtime, ns/op, commits, aborts). What the repository tracks
// about its own runtimes' throughput across revisions is `go run
// ./benchmark`, not this command.
//
// Observability: -trace enables the event tracer on the stamp and crash
// runtimes and prints conflict attribution (hottest objects) and latency
// percentiles afterwards; -metrics-addr serves the live /metrics endpoint
// (internal/metrics) while they run, for cmd/stmtop to poll:
//
//	stmbench -fig stamp -trace
//	stmbench -fig stamp -metrics-addr localhost:9190 &  stmtop -addr localhost:9190
//
// -trace-dump FILE writes the retained event history (with a causal
// flight recorder attached) as a JSON dump for offline analysis with
// cmd/stmtrace:
//
//	stmbench -fig crash -trace-dump crash.trace.json
//	stmtrace export -perfetto crash.trace.json > crash.perfetto.json
//	stmtrace starve crash.trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"strings"

	"repro/internal/bench"
	"repro/internal/causal"
	"repro/internal/conflict"
	"repro/internal/elide"
	"repro/internal/metrics"
	"repro/internal/stmapi"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// knownFigs lists every figure name run() dispatches on, in presentation
// order. Keep in sync with the run() calls below.
var knownFigs = []string{"6", "13", "15", "16", "17", "18", "19", "20", "stamp", "crash", "elide"}

func knownFig(name string) bool {
	for _, f := range knownFigs {
		if f == name {
			return true
		}
	}
	return false
}

func main() {
	// Benchmarks allocate heavily and time short runs; relax the collector
	// so GC pauses do not dominate the measurements.
	debug.SetGCPercent(400)
	fig := flag.String("fig", "all", "figure to regenerate: "+strings.Join(knownFigs, ", ")+" or all")
	scale := flag.Int("scale", 1, "workload scale factor")
	maxThreads := flag.Int("maxthreads", bench.MaxThreads(), "largest thread count in scalability sweeps")
	reps := flag.Int("reps", bench.Reps, "timed repetitions per configuration")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON results (stamp, crash and elide figures)")
	parTxns := flag.Int("partxns", 100_000, "transactions per stamp-sweep configuration")
	traceOn := flag.Bool("trace", false, "enable the event tracer on the stamp and crash figures; print hotspots and latency percentiles")
	traceDump := flag.String("trace-dump", "", "write the retained trace events (JSON) to FILE for cmd/stmtrace; implies tracing")
	metricsAddr := flag.String("metrics-addr", "", "serve the live /metrics endpoint (for cmd/stmtop) on host:port while running")
	policy := flag.String("policy", "", "contention policy for the stamp sweep: "+
		fmt.Sprintf("%v", conflict.PolicyNames)+" (empty means backoff)")
	seed := flag.Uint64("seed", 1, "fault-injection seed for the crash figure")
	manifestPath := flag.String("manifest", "", "elision manifest for the elide figure (empty: build in-process with the stmvet analyses)")
	versioning := flag.String("versioning", "", "restrict the stamp and crash sweeps to one runtime: "+
		fmt.Sprintf("%v", stmapi.Runtimes())+" (empty sweeps all)")
	// The usage text enumerates the registries (figures and runtimes are
	// both open-ended sets), so `stmbench -h` is always current: a newly
	// registered runtime shows up here without anyone editing a string.
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage: stmbench [flags]\n\n")
		fmt.Fprintf(out, "Figures (-fig):\n  %s, all\n\n", strings.Join(knownFigs, ", "))
		fmt.Fprintf(out, "Runtimes (-versioning, from the stmapi registry):\n  %s\n\n", strings.Join(stmapi.Runtimes(), ", "))
		fmt.Fprintf(out, "Flags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	bench.Reps = *reps
	// Fail fast on an unknown figure before anything runs: a typo should
	// not silently produce an empty report.
	if *fig != "all" && !knownFig(*fig) {
		fmt.Fprintf(os.Stderr, "stmbench: unknown figure %q (known: %s, all)\n",
			*fig, strings.Join(knownFigs, ", "))
		os.Exit(2)
	}
	// Fail fast on a size below 1 too: an empty thread sweep or zero
	// repetitions would otherwise index an empty result or print a table of
	// zero durations.
	for _, size := range []struct {
		flag  string
		value int
	}{{"maxthreads", *maxThreads}, {"reps", *reps}, {"scale", *scale}, {"partxns", *parTxns}} {
		if size.value < 1 {
			fmt.Fprintf(os.Stderr, "stmbench: -%s %d: must be at least 1\n", size.flag, size.value)
			os.Exit(2)
		}
	}
	// Fail fast on an unknown policy before any figure runs.
	if _, err := conflict.ByName(*policy); err != nil {
		fmt.Fprintf(os.Stderr, "stmbench: %v\n", err)
		os.Exit(2)
	}
	// Fail fast on an unknown runtime name too (mirroring the policy
	// check): a typo must not silently run an empty sweep.
	if *versioning != "" {
		known := false
		for _, name := range stmapi.Runtimes() {
			if name == *versioning {
				known = true
				break
			}
		}
		if !known {
			fmt.Fprintf(os.Stderr, "stmbench: unknown runtime %q (have %v)\n", *versioning, stmapi.Runtimes())
			os.Exit(2)
		}
	}

	var reg *metrics.Registry
	var tracer *trace.Tracer
	var recorder *causal.Recorder
	if *metricsAddr != "" || *traceOn || *traceDump != "" {
		var tcfg trace.Config
		if *traceDump != "" {
			// Offline analysis wants the whole run, not a ring-tail window:
			// deep rings keep flow edges' endpoints inside the dump.
			tcfg.ShardCapacity = 1 << 16
		}
		tracer = trace.New(tcfg)
		// A causal flight recorder always rides along with the tracer: it is
		// ring-bounded, and it feeds the `causal` line in /metrics + stmtop
		// and the trace-dump consumers.
		recorder = causal.NewRecorder(causal.Config{})
		tracer.SetSink(recorder)
	}
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
		srv, err := reg.Serve(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: serving http://%s/metrics\n", srv.Addr)
	}

	run := func(name string, f func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("6", func() error {
		out, ok := bench.RunAnomalies()
		fmt.Print(out)
		if !ok {
			return fmt.Errorf("anomaly matrix does not match the paper")
		}
		fmt.Println("matrix matches Figure 6")
		return nil
	})
	run("13", func() error {
		res, err := bench.RunStatic()
		if err != nil {
			return err
		}
		fmt.Print(res.String())
		return nil
	})
	overhead := func(name, figure string, sel vm.BarrierSelect) {
		run(name, func() error {
			res, err := bench.RunOverhead(figure, sel, *scale)
			if err != nil {
				return err
			}
			fmt.Print(res.String())
			return nil
		})
	}
	overhead("15", "Figure 15 (read+write barriers)", vm.BarrierAll)
	overhead("16", "Figure 16 (read barriers only)", vm.BarrierReadsOnly)
	overhead("17", "Figure 17 (write barriers only)", vm.BarrierWritesOnly)

	scaling := func(name, figure string, w workloads.Workload) {
		run(name, func() error {
			res, err := bench.RunScaling(figure, w, bench.ThreadSweep(*maxThreads), *scale)
			if err != nil {
				return err
			}
			fmt.Print(res.String())
			lo, hi := res.StrongWeakGap("Strong+WholeProg")
			fmt.Printf("strong/weak ratio: %.2fx at %d thread(s), %.2fx at %d threads\n",
				lo, res.Threads[0], hi, res.Threads[len(res.Threads)-1])
			return nil
		})
	}
	scaling("18", "Figure 18", workloads.Tsp())
	scaling("19", "Figure 19", workloads.OO7())
	scaling("20", "Figure 20", workloads.JBB())

	// observe builds the options that attach -trace / -trace-dump /
	// -metrics-addr to a figure's runtimes. Each measurement creates a fresh
	// runtime; re-registering it under a stable per-runtime name lets stmtop
	// always see the one currently running, whichever the registry built.
	observe := func(fig string) []bench.Option {
		var opts []bench.Option
		if tracer != nil {
			opts = append(opts, bench.WithTracer(tracer))
		}
		if reg != nil {
			opts = append(opts, bench.WithRuntime(func(rt stmapi.Runtime) {
				reg.RegisterRuntime(fig+"/"+rt.Name(), rt)
			}))
		}
		return opts
	}

	run("stamp", func() error {
		// Sweep 1, 2, 4, ... goroutines; at least up to 4 even on small
		// hosts so oversubscription behavior is visible.
		maxG := *maxThreads
		if maxG < 4 {
			maxG = 4
		}
		specs := bench.StampSpecs(maxG, *parTxns)
		specs = filterVersioning(specs, func(s bench.StampSpec) string { return s.Versioning }, *versioning)
		for i := range specs {
			specs[i].Policy = *policy
		}
		results, err := bench.RunStampSweep(specs, observe("stamp")...)
		if err != nil {
			return err
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(results); err != nil {
				return err
			}
		} else {
			fmt.Print(bench.FormatStamp(results))
		}
		if *traceOn && tracer != nil {
			printTraceSummary(tracer, recorder)
		}
		return nil
	})

	run("crash", func() error {
		specs := bench.CrashSpecs(*seed)
		specs = filterVersioning(specs, func(s bench.CrashSpec) string { return s.Versioning }, *versioning)
		results, err := bench.RunCrashSweep(specs, observe("crash")...)
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if encErr := enc.Encode(results); encErr != nil && err == nil {
				err = encErr
			}
		} else {
			fmt.Print(bench.FormatCrash(results))
		}
		if err != nil {
			return err
		}
		fmt.Println("all crash runs conserved balances and restored every record")
		if *traceOn && tracer != nil {
			printTraceSummary(tracer, recorder)
		}
		return nil
	})

	run("elide", func() error {
		var m *elide.Manifest
		if *manifestPath != "" {
			loaded, err := elide.ReadFile(*manifestPath)
			if err != nil {
				return err
			}
			m = loaded
			fmt.Fprintf(os.Stderr, "elide: loaded %s (%d site(s))\n", *manifestPath, len(m.Sites))
		} else {
			built, stats, err := bench.BuildElideManifest(".")
			if err != nil {
				return err
			}
			m = built
			fmt.Fprintf(os.Stderr, "elide: analyzed %s: %d function(s), %d site(s), %d elidable\n",
				bench.ElideWorkloadPackage, stats.Functions, stats.Sites, stats.Elidable)
		}
		results, err := bench.RunElideSweep(m, *scale)
		if results != nil {
			if *jsonOut {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				if encErr := enc.Encode(results); encErr != nil && err == nil {
					err = encErr
				}
			} else {
				fmt.Print(bench.FormatElide(results))
			}
		}
		return err
	})

	if *traceDump != "" && tracer != nil {
		if err := trace.WriteDumpFile(*traceDump, tracer.DumpState()); err != nil {
			fmt.Fprintf(os.Stderr, "trace-dump: %v\n", err)
			os.Exit(1)
		}
		d := tracer.DumpState()
		fmt.Fprintf(os.Stderr, "trace-dump: wrote %d events to %s (%d dropped before the dump)\n",
			len(d.Events), *traceDump, d.Dropped)
	}
}

// filterVersioning keeps only specs whose runtime name matches want; an
// empty want keeps everything (the full registry sweep).
func filterVersioning[T any](specs []T, version func(T) string, want string) []T {
	if want == "" {
		return specs
	}
	out := specs[:0]
	for _, s := range specs {
		if version(s) == want {
			out = append(out, s)
		}
	}
	return out
}

// printTraceSummary renders the sweep-wide conflict attribution and latency
// profile the tracer accumulated (to stderr, keeping -json stdout clean),
// plus the flight recorder's causal summary when one is attached.
func printTraceSummary(t *trace.Tracer, rec *causal.Recorder) {
	snap := t.Snapshot(10)
	w := os.Stderr
	fmt.Fprintf(w, "\ntrace: %d events recorded (%d beyond ring capacity)\n", snap.Events, snap.Dropped)
	fmt.Fprintf(w, "trace: commits %d, aborts %d, conflicts %d\n",
		snap.ByKind["commit"], snap.ByKind["abort"], snap.ByKind["conflict"])
	if len(snap.Hotspots) > 0 {
		fmt.Fprintf(w, "trace: hottest objects (aborts/conflicts):")
		for _, h := range snap.Hotspots {
			fmt.Fprintf(w, "  #%d %d/%d", h.Obj, h.Aborts, h.Conflicts)
		}
		fmt.Fprintln(w)
	}
	cl := snap.CommitLatency
	fmt.Fprintf(w, "trace: commit latency p50 %dns  p95 %dns  p99 %dns  mean %.0fns (n=%d)\n",
		cl.P50Ns, cl.P95Ns, cl.P99Ns, cl.MeanNs, cl.Count)
	if snap.AbortToRetry.Count > 0 {
		fmt.Fprintf(w, "trace: abort-to-retry gap p50 %dns  p99 %dns (n=%d)\n",
			snap.AbortToRetry.P50Ns, snap.AbortToRetry.P99Ns, snap.AbortToRetry.Count)
	}
	if snap.QuiesceWait.Count > 0 {
		fmt.Fprintf(w, "trace: quiescence wait p50 %dns  p99 %dns (n=%d)\n",
			snap.QuiesceWait.P50Ns, snap.QuiesceWait.P99Ns, snap.QuiesceWait.Count)
	}
	if rec != nil {
		live := rec.Live()
		rep := causal.Analyze(rec.Graph())
		fmt.Fprintf(w, "causal: %d attempts, %d edges, wasted work %.1f%%, max consecutive aborts %d",
			live.Attempts, live.Edges, live.WastedWorkPct, rep.MaxConsecutiveAborts)
		if rep.MaxConsecutiveTxn != 0 {
			fmt.Fprintf(w, " (txn %d)", rep.MaxConsecutiveTxn)
		}
		fmt.Fprintln(w)
		if rep.LongestChainDepth > 1 {
			fmt.Fprintf(w, "causal: longest victim chain depth %d\n", rep.LongestChainDepth)
		}
	}
}
