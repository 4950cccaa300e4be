// Package repro's benchmarks regenerate every table and figure of the
// paper's evaluation as testing.B benchmarks — one benchmark family per
// figure. Run them all with:
//
//	go test -bench=. -benchmem
//
// The cmd/stmbench tool produces the same sweeps as formatted tables with
// overhead percentages; these benchmarks expose the raw per-configuration
// times through the standard Go tooling instead, plus microbenchmarks of
// the paper's barrier instruction sequences, which show the
// compiled-code-magnitude costs that the interpreter-hosted figures damp.
package repro

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/causal"
	"repro/internal/lang/ir"
	"repro/internal/lazystm"
	"repro/internal/litmus"
	"repro/internal/mvstm"
	"repro/internal/objmodel"
	"repro/internal/opt"
	"repro/internal/stm"
	"repro/internal/stmapi"
	"repro/internal/strong"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// ---- Figure 6: the anomaly matrix ----

func BenchmarkFig06AnomalyMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := litmus.RunAll(litmus.AllModes)
		if ok, why := litmus.Matches(results, litmus.AllModes); !ok {
			b.Fatalf("matrix mismatch: %s", why)
		}
	}
}

// ---- Figure 13: static barrier-removal counts ----

func BenchmarkFig13StaticCounts(b *testing.B) {
	progs := make([]*ir.Program, 0)
	for _, w := range workloads.All() {
		p, _, err := w.Compile(opt.O0NoOpts, 1)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			rep := analysis.Run(p, analysis.Options{Granularity: 1})
			if rep.TotalReads+rep.TotalWrites == 0 {
				b.Fatal("no barriers counted")
			}
		}
	}
}

// ---- Figures 15/16/17: non-transactional barrier overhead ----

func overheadBench(b *testing.B, sel vm.BarrierSelect) {
	type cfg struct {
		name   string
		level  opt.Level
		strong bool
		dea    bool
	}
	configs := []cfg{
		{"Baseline", opt.O0NoOpts, false, false},
		{"NoOpts", opt.O0NoOpts, true, false},
		{"BarrierElim", opt.O1BarrierElim, true, false},
		{"BarrierAggr", opt.O2Aggregate, true, false},
		{"DEA", opt.O3DEA, true, true},
		{"WholeProg", opt.O4WholeProg, true, true},
	}
	for _, w := range workloads.JVM98() {
		args := w.CheckArgs
		for _, c := range configs {
			o := opt.FromLevel(c.level, 1)
			if sel == vm.BarrierReadsOnly {
				o.Aggregate = false
			}
			prog, _, err := w.CompileOptions(o)
			if err != nil {
				b.Fatal(err)
			}
			mode := vm.Mode{
				Sync: vm.SyncSTM, Versioning: vm.Eager,
				Strong: c.strong, DEA: c.dea, Barriers: sel, Args: args,
			}
			b.Run(fmt.Sprintf("%s/%s", w.Name, c.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := workloads.Run(prog, mode); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig15Jvm98Overhead(b *testing.B) { overheadBench(b, vm.BarrierAll) }
func BenchmarkFig16ReadBarriers(b *testing.B)  { overheadBench(b, vm.BarrierReadsOnly) }
func BenchmarkFig17WriteBarriers(b *testing.B) { overheadBench(b, vm.BarrierWritesOnly) }

// ---- Figures 18/19/20: transactional scalability ----

func scalingBench(b *testing.B, w workloads.Workload) {
	for _, cfg := range bench.ScalingConfigs() {
		prog, _, err := w.Compile(cfg.Level, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, threads := range bench.ThreadSweep(bench.MaxThreads()) {
			args := w.BenchArgs(threads, 1, cfg.UseTxn)
			// Shrink to check-scale for the testing.B harness; the full
			// sweep lives in cmd/stmbench.
			args[1] = w.CheckArgs[1]
			mode := cfg.Mode(args)
			b.Run(fmt.Sprintf("%s/%dT", cfg.Name, threads), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := workloads.Run(prog, mode); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig18Tsp(b *testing.B) { scalingBench(b, workloads.Tsp()) }
func BenchmarkFig19OO7(b *testing.B) { scalingBench(b, workloads.OO7()) }
func BenchmarkFig20JBB(b *testing.B) { scalingBench(b, workloads.JBB()) }

// ---- Microbenchmarks: the paper's barrier sequences at compiled speed ----
//
// These measure the raw cost of the Figure 9/10 instruction sequences
// against a plain access, the ratio the paper's "up to 8x unoptimized"
// headline comes from: on compiled code, an unbarriered access is a single
// load/store, and the write barrier adds an atomic RMW + atomic add.

func barrierFixture(b *testing.B, dea bool) (*objmodel.Heap, *objmodel.Object, *strong.Barriers) {
	b.Helper()
	h := objmodel.NewHeap()
	h.AllocPrivate = dea
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "Cell",
		Fields: []objmodel.Field{{Name: "a"}, {Name: "b"}, {Name: "c"}},
	})
	return h, h.New(cls), strong.New(h, dea)
}

var sinkU64 uint64

func BenchmarkAccessPlainLoad(b *testing.B) {
	_, o, _ := barrierFixture(b, false)
	var s uint64
	for i := 0; i < b.N; i++ {
		s += o.LoadSlot(0)
	}
	sinkU64 = s
}

func BenchmarkAccessPlainStore(b *testing.B) {
	_, o, _ := barrierFixture(b, false)
	for i := 0; i < b.N; i++ {
		o.StoreSlot(0, uint64(i))
	}
}

func BenchmarkAccessReadBarrier(b *testing.B) {
	_, o, bar := barrierFixture(b, false)
	var s uint64
	for i := 0; i < b.N; i++ {
		s += bar.Read(o, 0)
	}
	sinkU64 = s
}

func BenchmarkAccessWriteBarrier(b *testing.B) {
	_, o, bar := barrierFixture(b, false)
	for i := 0; i < b.N; i++ {
		bar.Write(o, 0, uint64(i))
	}
}

// BenchmarkAccessWriteBarrierParallel is the write barrier with every
// goroutine on an object of its own: they share nothing but the heap's commit
// clock, so what this shows beyond BenchmarkAccessWriteBarrier, on more than
// one processor, is what the barrier costs its neighbours through that line
// (a run of writes to one object steps the clock once, at its first).
func BenchmarkAccessWriteBarrierParallel(b *testing.B) {
	h, first, bar := barrierFixture(b, false)
	// One object per goroutine, seven unused ones apart: no two of them, nor
	// their slot arrays, share a cache line.
	objs := make([]*objmodel.Object, runtime.GOMAXPROCS(0))
	for i := range objs {
		objs[i] = h.New(first.Class)
		for pad := 0; pad < 7; pad++ {
			h.New(first.Class)
		}
	}
	var next atomic.Int32
	b.RunParallel(func(pb *testing.PB) {
		o := objs[next.Add(1)-1]
		for i := uint64(0); pb.Next(); i++ {
			bar.Write(o, 0, i)
		}
	})
}

func BenchmarkAccessReadBarrierPrivate(b *testing.B) {
	_, o, bar := barrierFixture(b, true)
	var s uint64
	for i := 0; i < b.N; i++ {
		s += bar.Read(o, 0)
	}
	sinkU64 = s
}

func BenchmarkAccessWriteBarrierPrivate(b *testing.B) {
	_, o, bar := barrierFixture(b, true)
	for i := 0; i < b.N; i++ {
		bar.Write(o, 0, uint64(i))
	}
}

func BenchmarkAccessAggregated3(b *testing.B) {
	// One acquire/release amortized over three accesses (Figure 14)
	// versus three standalone write barriers.
	_, o, bar := barrierFixture(b, false)
	for i := 0; i < b.N; i++ {
		tok := bar.Acquire(o)
		bar.AggWrite(o, 0, uint64(i), tok)
		v := bar.AggRead(o, 1, tok)
		bar.AggWrite(o, 2, v+1, tok)
		bar.Release(o, tok)
	}
}

func BenchmarkAccessSeparate3(b *testing.B) {
	_, o, bar := barrierFixture(b, false)
	for i := 0; i < b.N; i++ {
		bar.Write(o, 0, uint64(i))
		v := bar.Read(o, 1)
		bar.Write(o, 2, v+1)
	}
}

// ---- STM operation costs ----

func BenchmarkTxnReadWriteCommit(b *testing.B) {
	h, o, _ := barrierFixture(b, false)
	rt := stm.New(h, stmapi.CommonConfig{})
	for i := 0; i < b.N; i++ {
		_ = rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, tx.Read(o, 0)+1)
			return nil
		})
	}
}

func BenchmarkTxnReadOnly(b *testing.B) {
	h, o, _ := barrierFixture(b, false)
	rt := stm.New(h, stmapi.CommonConfig{})
	var s uint64
	for i := 0; i < b.N; i++ {
		_ = rt.Atomic(func(tx stmapi.Txn) error {
			s += tx.Read(o, 0) + tx.Read(o, 1) + tx.Read(o, 2)
			return nil
		})
	}
	sinkU64 = s
}

// BenchmarkTxnReadOnlyParallel is BenchmarkTxnReadOnly from GOMAXPROCS
// goroutines on every runtime, each on a cell of its own, so the transactions
// share no data. What they can still share is the runtime's own cache lines:
// a line every begin writes shows here, on more than one processor, as ns/op
// above the one-goroutine figure. Allocation-free.
func BenchmarkTxnReadOnlyParallel(b *testing.B) {
	for _, rtc := range []struct {
		name string
		mk   func(*objmodel.Heap) stmapi.Runtime
	}{
		{"eager", func(h *objmodel.Heap) stmapi.Runtime { return stm.New(h, stmapi.CommonConfig{}) }},
		{"lazy", func(h *objmodel.Heap) stmapi.Runtime { return lazystm.New(h, stmapi.CommonConfig{}) }},
		{"mvstm", func(h *objmodel.Heap) stmapi.Runtime { return mvstm.New(h, stmapi.CommonConfig{}) }},
	} {
		b.Run(rtc.name, func(b *testing.B) {
			h, first, _ := barrierFixture(b, false)
			rt := rtc.mk(h)
			// One cell per goroutine, seven unused ones apart: no two of
			// them, nor their slot arrays, share a cache line.
			cells := make([]*objmodel.Object, runtime.GOMAXPROCS(0))
			for i := range cells {
				cells[i] = h.New(first.Class)
				for pad := 0; pad < 7; pad++ {
					h.New(first.Class)
				}
			}
			var next atomic.Int32
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				o := cells[next.Add(1)-1]
				var s uint64
				body := func(tx stmapi.Txn) error {
					s += tx.Read(o, 0) + tx.Read(o, 1) + tx.Read(o, 2)
					return nil
				}
				for pb.Next() {
					_ = rt.Atomic(body)
				}
			})
		})
	}
}

// BenchmarkKernelStats is the cost of one Stats() call, which /metrics and
// stmtop make on every scrape, on a runtime whose registry has had 2 and 256
// slots claimed at once (its high-water mark), all of them free again when
// it is measured.
func BenchmarkKernelStats(b *testing.B) {
	for _, slots := range []int{2, 256} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			h, first, _ := barrierFixture(b, false)
			rt := mvstm.New(h, stmapi.CommonConfig{})
			var parked, wg sync.WaitGroup
			release := make(chan struct{})
			parked.Add(slots)
			for i := 0; i < slots; i++ {
				o := h.New(first.Class)
				wg.Add(1)
				go func() {
					defer wg.Done()
					first := true
					_ = rt.Atomic(func(tx stmapi.Txn) error {
						tx.Write(o, 0, tx.Read(o, 0)+1)
						if first { // hold the slot until every goroutine holds one
							first = false
							parked.Done()
							<-release
						}
						return nil
					})
				}()
			}
			parked.Wait()
			close(release)
			wg.Wait()
			if got := rt.Stats().Commits; got != int64(slots) {
				b.Fatalf("commits = %d, want %d", got, slots)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = rt.Stats()
			}
		})
	}
}

// BenchmarkHeapNew is one allocation: Heap.New of a class of 4 slots (held
// inline) and of 33 (a slot array of their own), and Heap.NewArray of 4096
// elements. A fresh heap every 8192 objects (64 arrays), timed with them,
// bounds what the run holds; the benchmark workloads' set-ups build heaps
// of that size.
func BenchmarkHeapNew(b *testing.B) {
	classes := objmodel.NewHeap()
	c4 := classes.MustDefineClass(objmodel.ClassSpec{Name: "C4", Fields: make([]objmodel.Field, 4)})
	c33 := classes.MustDefineClass(objmodel.ClassSpec{Name: "C33", Fields: make([]objmodel.Field, 33)})
	for _, bc := range []struct {
		name  string
		per   int
		alloc func(*objmodel.Heap)
	}{
		{"slots4", 8192, func(h *objmodel.Heap) { h.New(c4) }},
		{"slots33", 8192, func(h *objmodel.Heap) { h.New(c33) }},
		{"array4096", 64, func(h *objmodel.Heap) { h.NewArray(4096, false) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var h *objmodel.Heap
			for i := 0; i < b.N; i++ {
				if i%bc.per == 0 {
					h = objmodel.NewHeap()
				}
				bc.alloc(h)
			}
		})
	}
}

// BenchmarkTxnEmptyCommit isolates pure transaction overhead: descriptor
// acquisition, registry begin/end, commit, stats flush. With descriptor
// pooling this is allocation-free — run with -benchmem to verify 0
// allocs/op.
func BenchmarkTxnEmptyCommit(b *testing.B) {
	h, _, _ := barrierFixture(b, false)
	rt := stm.New(h, stmapi.CommonConfig{})
	nop := func(tx stmapi.Txn) error { return nil }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = rt.Atomic(nop)
	}
}

// BenchmarkTxnTracerDisabled / BenchmarkTxnTracerEnabled measure the cost
// of the observability hooks. With no tracer installed the per-transaction
// price is one atomic pointer load plus nil checks — run with -benchmem to
// verify the disabled path stays at 0 allocs/op and within noise of
// BenchmarkTxnReadWriteCommit. The enabled variant shows the full price of
// event recording, hotspot accounting, and latency histograms.
func BenchmarkTxnTracerDisabled(b *testing.B) {
	h, o, _ := barrierFixture(b, false)
	rt := stm.New(h, stmapi.CommonConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, tx.Read(o, 0)+1)
			return nil
		})
	}
}

func BenchmarkTxnTracerEnabled(b *testing.B) {
	h, o, _ := barrierFixture(b, false)
	rt := stm.New(h, stmapi.CommonConfig{})
	rt.SetTracer(trace.New(trace.Config{}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, tx.Read(o, 0)+1)
			return nil
		})
	}
}

// BenchmarkTxnCausalRecorder adds the flight recorder as the tracer's sink:
// the full observability stack — event recording plus per-event conflict-DAG
// maintenance (attempt spans, edge rings, last-writer table). Compare against
// BenchmarkTxnTracerEnabled for the recorder's marginal price and against
// BenchmarkTxnTracerDisabled for the total; the disabled path must stay at
// 0 allocs/op regardless of this stack existing.
func BenchmarkTxnCausalRecorder(b *testing.B) {
	h, o, _ := barrierFixture(b, false)
	rt := stm.New(h, stmapi.CommonConfig{})
	tr := trace.New(trace.Config{})
	tr.SetSink(causal.NewRecorder(causal.Config{}))
	rt.SetTracer(tr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, tx.Read(o, 0)+1)
			return nil
		})
	}
}

// BenchmarkLazyTxnSmall is the lazy-runtime analogue of
// BenchmarkTxnReadWriteCommit: buffer a write, read it back, commit with
// write-back. Also allocation-free in steady state.
func BenchmarkLazyTxnSmall(b *testing.B) {
	h, o, _ := barrierFixture(b, false)
	rt := lazystm.New(h, stmapi.CommonConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, tx.Read(o, 0)+1)
			return nil
		})
	}
}

// BenchmarkLazyWriteCommit is a lazy commit with a write set of 8 objects:
// buffer, acquire in buffer order, validate, write back, release, all
// out of the descriptor's reused arrays.
func BenchmarkLazyWriteCommit(b *testing.B) {
	h, first, _ := barrierFixture(b, false)
	objs := [8]*objmodel.Object{first}
	for i := 1; i < len(objs); i++ {
		objs[i] = h.New(first.Class)
	}
	rt := lazystm.New(h, stmapi.CommonConfig{})
	body := func(tx stmapi.Txn) error {
		for _, o := range objs {
			tx.Write(o, 0, tx.Read(o, 0)+1)
		}
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rt.Atomic(body)
	}
}

// ---- mvstm's install path and the read path it feeds ----
//
// The per-layer figures behind `go run ./benchmark`'s mvstm rows (ROADMAP
// aim 1): what a writing commit costs and allocates, and what a snapshot
// read costs when the object holds the version it wants against when one
// chain node does.

// mvWriteFixture is a multi-version runtime over n four-slot objects, and
// mvWriteBody partitioned_write's operation over some of them: 8 random
// (object, slot) pairs, each incremented with probability 90% and read
// otherwise.
func mvWriteFixture(n int) (*mvstm.Runtime, []*objmodel.Object) {
	h := objmodel.NewHeap()
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "Cell4",
		Fields: []objmodel.Field{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}},
	})
	objs := make([]*objmodel.Object, n)
	for i := range objs {
		objs[i] = h.New(cls)
	}
	return mvstm.New(h, stmapi.CommonConfig{}), objs
}

func mvWriteBody(objs []*objmodel.Object, seed uint64) func(stmapi.Txn) error {
	rng := seed
	return func(tx stmapi.Txn) error {
		for p := 0; p < 8; p++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			o, slot := objs[rng>>8%uint64(len(objs))], int(rng>>40&3)
			if v := tx.Read(o, slot); rng>>48%10 != 0 {
				tx.Write(o, slot, v+1)
			}
		}
		return nil
	}
}

// BenchmarkMVWriteCommit is partitioned_write's operation on one goroutine.
// Allocation is a version node for an object's first install only. An object
// drawn twice within the 64 commits between a descriptor's watermark refreshes,
// about one write in seven over these 1024 objects, has its head above the
// cached watermark; the commit's on-demand horizon, with no other snapshot
// live, clears it, and every install rewrites the chain's dead head in place
// (0 B/op).
func BenchmarkMVWriteCommit(b *testing.B) {
	rt, objs := mvWriteFixture(1024)
	body := mvWriteBody(objs, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rt.Atomic(body)
	}
}

// BenchmarkMVWriteCommitLarge is durable_bank's transfer without the disk: one
// goroutine moves a unit between two slots of a 4096-slot array. Each commit
// finds the array's head dead under its own snapshot and rewrites it in place
// with the image it overwrites, which differs from the one the head holds in
// the two slots the commit before wrote. Storing every slot costs 31-37 µs/op
// on a 2-CPU x86-64 host; storing only the slots that differ, 6-8 µs/op,
// most of it loading the object and the head once each.
func BenchmarkMVWriteCommitLarge(b *testing.B) {
	const slots = 4096
	h := objmodel.NewHeap()
	arr := h.NewArray(slots, false)
	rt := mvstm.New(h, stmapi.CommonConfig{})
	rng := uint64(1)
	body := func(tx stmapi.Txn) error {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		from, to := int(rng%slots), int(rng>>32%slots)
		tx.Write(arr, from, tx.Read(arr, from)-1)
		tx.Write(arr, to, tx.Read(arr, to)+1)
		return nil
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rt.Atomic(body)
	}
}

// BenchmarkMVWriteCommitParallel is the same operation from GOMAXPROCS
// goroutines, each on its own share of 8192 objects (halves on the 2-CPU
// host), as partitioned_write runs it: no two commits share an object, so
// what they can still share is the runtime's own cache lines. The clock is
// one; the commit gate is a flag on the descriptor so that it is not another.
func BenchmarkMVWriteCommitParallel(b *testing.B) {
	rt, objs := mvWriteFixture(8192)
	parts := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		g := int(next.Add(1) - 1)
		body := mvWriteBody(objs[g*len(objs)/parts:(g+1)*len(objs)/parts], uint64(g+1))
		for pb.Next() {
			_ = rt.Atomic(body)
		}
	})
}

// BenchmarkMVSnapshotRead times one read inside an open snapshot: inline,
// the record's version is covered and the value comes off the slots under
// the record seqlock; chain, a commit after the snapshot has overwritten the
// object and the value is on the one node that commit pushed.
func BenchmarkMVSnapshotRead(b *testing.B) {
	for _, chain := range []bool{false, true} {
		name := "inline"
		if chain {
			name = "chain"
		}
		b.Run(name, func(b *testing.B) {
			h, o, _ := barrierFixture(b, false)
			rt := mvstm.New(h, stmapi.CommonConfig{})
			bump := func() {
				_ = rt.Atomic(func(tx stmapi.Txn) error {
					tx.Write(o, 0, tx.Read(o, 0)+1)
					return nil
				})
			}
			bump()
			var s uint64
			_ = rt.AtomicRead(func(stx stmapi.Txn) error {
				if chain {
					done := make(chan struct{})
					go func() { defer close(done); bump() }()
					<-done
				}
				tx := stx.(*mvstm.Txn) // one read, not one read and a dynamic dispatch
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s += tx.Read(o, 0)
				}
				return nil
			})
			sinkU64 = s
		})
	}
}

// ---- STAMP-shape workload throughput ----
//
// The structured mixes from internal/workloads (vacation, kmeans, genome)
// drive the eager runtime's Go API under concurrent load at 1, 2, 4, and
// GOMAXPROCS goroutines; `stmbench -fig stamp [-json]` runs the full sweep
// over every registered runtime. The uniform read-heavy/mixed/write-heavy
// mixes are `go run ./benchmark`'s partitioned_read, partitioned_write and
// shared_hot workloads.

func parallelGoroutineCounts() []int {
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	return counts
}

func benchStamp(b *testing.B, workload string) {
	for _, g := range parallelGoroutineCounts() {
		b.Run(fmt.Sprintf("%dg", g), func(b *testing.B) {
			b.ReportAllocs()
			res, err := bench.RunStamp(bench.StampSpec{
				Workload:   workload,
				Versioning: "eager",
				Goroutines: g,
				Txns:       b.N,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Aborts)/float64(b.N), "aborts/op")
		})
	}
}

func BenchmarkStampVacation(b *testing.B) { benchStamp(b, "vacation") }
func BenchmarkStampKmeans(b *testing.B)   { benchStamp(b, "kmeans") }
func BenchmarkStampGenome(b *testing.B)   { benchStamp(b, "genome") }

// BenchmarkInterpreterDispatch calibrates the substrate: how many IR
// instructions per second the VM interprets (context for the damped
// wall-clock overheads relative to the paper's native JIT).
func BenchmarkInterpreterDispatch(b *testing.B) {
	w, err := workloads.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	prog, _, err := w.Compile(opt.O0NoOpts, 1)
	if err != nil {
		b.Fatal(err)
	}
	var instrs atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, m, err := workloads.Run(prog, vm.Mode{Sync: vm.SyncSTM, Versioning: vm.Eager, Args: w.CheckArgs})
		if err != nil {
			b.Fatal(err)
		}
		instrs.Add(m.Executed.Load())
	}
	b.ReportMetric(float64(instrs.Load())/b.Elapsed().Seconds(), "instrs/s")
}
