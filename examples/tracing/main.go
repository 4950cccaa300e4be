// Tracing: find the contended object in a workload you didn't write —
// then reconstruct *why* each abort happened.
//
// Eight goroutines hammer a hundred transactional counters. The access
// pattern is skewed — most transactions also touch counter #0 — so that one
// object causes almost every conflict. With the tracer installed, the
// runtime attributes each abort to the object whose version moved, and the
// hotspot table names the culprit without any instrumentation in the
// workload itself. The same data is what `stmbench -metrics-addr` serves
// and `stmtop` renders live.
//
// A causal flight recorder rides along as the tracer's sink: it folds the
// event stream into a conflict DAG (attempt spans + typed causal edges),
// the structure behind `stmtrace starve` and the Perfetto/DOT exports. The
// example prints the starvation profile and writes the raw trace next to
// the binary so you can explore it offline:
//
//	go run ./examples/tracing
//	go run ./cmd/stmtrace export -perfetto tracing.trace.json > tracing.perfetto.json
//	# open tracing.perfetto.json at https://ui.perfetto.dev
//
// Run: go run ./examples/tracing
package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/causal"
	"repro/internal/objmodel"
	"repro/internal/stm"
	"repro/internal/stmapi"
	"repro/internal/trace"
)

func main() {
	heap := objmodel.NewHeap()
	cls := heap.MustDefineClass(objmodel.ClassSpec{
		Name:   "Counter",
		Fields: []objmodel.Field{{Name: "n"}},
	})
	const (
		counters   = 100
		goroutines = 8
		txnsPer    = 5000
	)
	objs := make([]*objmodel.Object, counters)
	for i := range objs {
		objs[i] = heap.New(cls)
	}

	rt := stm.New(heap, stmapi.CommonConfig{})
	tracer := trace.New(trace.Config{})
	recorder := causal.NewRecorder(causal.Config{})
	tracer.SetSink(recorder)
	rt.SetTracer(tracer)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < txnsPer; i++ {
				// Skew: every transaction updates a random counter, and 3 in
				// 4 also update counter #0 — the planted hotspot.
				cold := objs[1+rng.Intn(counters-1)]
				touchHot := rng.Intn(4) > 0
				_ = rt.Atomic(func(tx stmapi.Txn) error {
					v := tx.Read(cold, 0)
					var hv uint64
					if touchHot {
						hv = tx.Read(objs[0], 0)
					}
					// Simulated work between read and write: yield so the
					// read-to-write window overlaps other transactions even
					// on a single CPU. This is where real workloads conflict.
					runtime.Gosched()
					tx.Write(cold, 0, v+1)
					if touchHot {
						tx.Write(objs[0], 0, hv+1)
					}
					return nil
				})
			}
		}(int64(g))
	}
	wg.Wait()

	s := rt.Stats()
	fmt.Printf("transactions: %d committed, %d aborted (%.1f%% abort rate)\n",
		s.Commits, s.Aborts, 100*float64(s.Aborts)/float64(s.Starts))

	fmt.Println("\ntop-5 hotspots (conflict attribution):")
	for i, h := range tracer.Hot().Top(5) {
		marker := ""
		if h.Obj == uint64(objs[0].Ref()) {
			marker = "   <- the planted hotspot"
		}
		fmt.Printf("  %d. object #%-6d %6d aborts  %6d conflicts%s\n",
			i+1, h.Obj, h.Aborts, h.Conflicts, marker)
	}

	cl := tracer.CommitLatency().Snapshot()
	fmt.Printf("\ncommit latency: p50 %dns  p99 %dns  mean %.0fns  (n=%d)\n",
		cl.P50Ns, cl.P99Ns, cl.MeanNs, cl.Count)
	gap := tracer.AbortGap().Snapshot()
	if gap.Count > 0 {
		fmt.Printf("abort-to-retry gap: p50 %dns  p99 %dns  (n=%d)\n",
			gap.P50Ns, gap.P99Ns, gap.Count)
	}
	total, dropped := tracer.Recorded()
	fmt.Printf("events recorded: %d (%d beyond ring capacity)\n", total, dropped)

	// The flight recorder saw every event, not just the ring window: walk
	// its conflict DAG for the causal story behind the abort counts.
	rep := causal.Analyze(recorder.Graph())
	fmt.Printf("\ncausal analysis: %d attempts across %d transactions\n", rep.Attempts, rep.Transactions)
	fmt.Printf("  wasted work: %.1f%% of attempt time went to aborted attempts\n", 100*rep.WastedWorkRatio)
	fmt.Printf("  max consecutive aborts: %d", rep.MaxConsecutiveAborts)
	if rep.MaxConsecutiveTxn != 0 {
		fmt.Printf(" (txn %d)", rep.MaxConsecutiveTxn)
	}
	fmt.Println()
	if len(rep.Dominance) > 0 {
		d := rep.Dominance[0]
		fmt.Printf("  dominant object: #%d with %d abort edges, %d wait edges\n", d.Obj, d.Aborts, d.Waits)
	}

	const dumpPath = "tracing.trace.json"
	if err := trace.WriteDumpFile(dumpPath, tracer.DumpState()); err != nil {
		fmt.Println("trace dump:", err)
		return
	}
	fmt.Printf("\nwrote %s — try:\n", dumpPath)
	fmt.Printf("  go run ./cmd/stmtrace starve %s\n", dumpPath)
	fmt.Printf("  go run ./cmd/stmtrace export -perfetto %s > tracing.perfetto.json\n", dumpPath)
}
