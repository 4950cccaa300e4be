// Package elidewl is the barrier-elision benchmark workload: a
// self-contained program whose allocation sites exercise every class the
// whole-program NAIT/TL analyses (internal/vetstm/interproc) can prove.
// `stmvet elide ./internal/workloads/elidewl` — or, in-process,
// bench.BuildElideManifest — classifies exactly these sites:
//
//   - scratch objects: allocated per worker, hammered through the NT
//     barriers, never escaping the goroutine → nait+tl. These carry the
//     measurable win: manifest-born-private objects ride the Figure 10
//     one-load fast path instead of the acquire/release write barrier.
//   - handoff items: allocated by a producer, initialized through NT
//     barriers, and passed to a consumer goroutine by writing their
//     reference into a public mailbox (the Figure 10b publication walk)
//     → nait (shared, but never touched inside a transaction).
//   - the mailbox array: cross-goroutine, NT-only → nait; published
//     eagerly at construction, so handoff always goes through the
//     protected state.
//   - shared counters: transactionally bumped by every worker → mixed,
//     the one class whose barriers are all kept.
//
// The workload is deliberately a leaf: it imports only the runtime
// packages, so the analysis of this one package sees each object's whole
// lifecycle and the classification is exact, not conservatively widened
// by unknown callers. Run self-validates (handoff checksum, counter
// totals) so an unsound elision shows up as a wrong answer, not just a
// fast one.
package elidewl

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/elide"
	"repro/internal/objmodel"
	"repro/internal/stm"
	"repro/internal/stmapi"
	"repro/internal/strong"
	"repro/internal/trace"
)

// Config sizes one workload run.
type Config struct {
	Workers int // producer/consumer pairs
	Items   int // handoff objects per producer
	Scratch int // scratch write+read rounds per worker
	TxnOps  int // transactions per worker on the shared counters

	// Manifest, when non-nil, is applied to the heap before any
	// allocation (the B side of the A/B measurement).
	Manifest *elide.Manifest

	// Tracer, when non-nil, is installed on the STM runtime and on the
	// barriers (the soundness oracle, as its sink, sees transactional and
	// non-transactional accesses through it). Leave nil when timing.
	Tracer *trace.Tracer

	// OnSetup, when non-nil, runs after the manifest is applied and
	// before anything is allocated — the oracle attaches its allocation
	// observer here.
	OnSetup func(h *objmodel.Heap)
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Items <= 0 {
		c.Items = 512
	}
	if c.Scratch <= 0 {
		c.Scratch = 8192
	}
	if c.TxnOps <= 0 {
		c.TxnOps = 512
	}
}

// Result reports one run.
type Result struct {
	Elapsed time.Duration
	Stats   *strong.Stats // NT-barrier counters (reads/writes, private hits)
	Handoff uint64        // checksum of consumed item values

	// ScratchNS/ScratchOps isolate the pure NT-barrier cost: the scratch
	// loops run back-to-back barriered accesses with no scheduling or
	// allocation in the timed region, so their per-op time is the clean
	// A/B signal (total Elapsed is dominated by handoff ping-pong).
	ScratchNS  int64
	ScratchOps int64
}

// Run executes the workload once and verifies its own answers.
func Run(cfg Config) (Result, error) {
	cfg.defaults()

	h := objmodel.NewHeap()
	if cfg.Manifest != nil {
		h.ApplyManifest(cfg.Manifest)
	}
	if cfg.OnSetup != nil {
		cfg.OnSetup(h)
	}

	itemCls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "elidewl.Item",
		Fields: []objmodel.Field{{Name: "val"}, {Name: "seq"}},
	})
	scrCls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "elidewl.Scratch",
		Fields: []objmodel.Field{{Name: "acc"}, {Name: "tmp"}},
	})
	cntCls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "elidewl.Counter",
		Fields: []objmodel.Field{{Name: "a"}, {Name: "b"}},
	})

	bars := strong.New(h, false)
	st := &strong.Stats{}
	bars.Stats = st
	bars.Tracer = cfg.Tracer
	rt := stm.New(h, stmapi.CommonConfig{})
	rt.SetTracer(cfg.Tracer)

	// Shared counters: every worker transactionally bumps two of them per
	// transaction — the mixed, hot sites.
	counters := make([]*objmodel.Object, cfg.Workers)
	for i := range counters {
		counters[i] = h.New(cntCls)
	}

	// The handoff mailbox: one reference slot per worker pair, public by
	// construction so writing an item's reference into it publishes the
	// item (Figure 10b) before the consumer can see it.
	mbox := h.NewArray(cfg.Workers, true)
	h.Publish(mbox)

	var wg sync.WaitGroup
	var scratchNS int64
	sums := make([]uint64, cfg.Workers)
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(2)
		// Producer: private scratch work, item handoffs, counter txns.
		go func(w int) {
			defer wg.Done()

			// nait+tl: never escapes this goroutine, NT accesses only.
			scr := h.New(scrCls)
			acc := uint64(0)
			t0 := time.Now()
			for i := 0; i < cfg.Scratch; i++ {
				bars.Write(scr, 0, acc+uint64(i))
				acc = bars.Read(scr, 0)
			}
			bars.Write(scr, 1, acc)
			atomic.AddInt64(&scratchNS, time.Since(t0).Nanoseconds())

			for i := 0; i < cfg.Items; i++ {
				// nait: initialized privately, then published by the
				// mailbox write; the consumer reads it NT — no transaction
				// ever touches an item.
				item := h.New(itemCls)
				bars.Write(item, 0, uint64(i))
				bars.Write(item, 1, uint64(w))
				bars.WriteRef(mbox, w, item.Ref())
				for bars.ReadRef(mbox, w) != 0 {
					runtime.Gosched() // wait for the consumer's ack
				}
			}

			for i := 0; i < cfg.TxnOps; i++ {
				if err := rt.Atomic(func(tx stmapi.Txn) error {
					c := counters[w]
					tx.Write(c, 0, tx.Read(c, 0)+1)
					n := counters[(w+1)%cfg.Workers]
					tx.Write(n, 1, tx.Read(n, 1)+1)
					return nil
				}); err != nil {
					panic(err) // Atomic without Retry/cancel cannot fail
				}
			}
		}(w)
		// Consumer: receives each item through the managed heap.
		go func(w int) {
			defer wg.Done()
			var sum uint64
			for i := 0; i < cfg.Items; i++ {
				var r objmodel.Ref
				for r = bars.ReadRef(mbox, w); r == 0; r = bars.ReadRef(mbox, w) {
					runtime.Gosched()
				}
				o := h.Get(r)
				sum += bars.Read(o, 0)
				bars.WriteRef(mbox, w, 0) // ack
			}
			sums[w] = sum
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Self-validation: an unsound elision must surface as a wrong answer.
	wantSum := uint64(cfg.Items) * uint64(cfg.Items-1) / 2
	var handoff uint64
	for w, s := range sums {
		if s != wantSum {
			return Result{}, fmt.Errorf("elidewl: worker %d handoff sum = %d, want %d", w, s, wantSum)
		}
		handoff += s
	}
	var bumped uint64
	for _, c := range counters {
		bumped += bars.Read(c, 0) + bars.Read(c, 1)
	}
	wantBumps := uint64(cfg.Workers) * uint64(cfg.TxnOps) * 2
	if bumped != wantBumps {
		return Result{}, fmt.Errorf("elidewl: counter total = %d, want %d", bumped, wantBumps)
	}

	return Result{
		Elapsed:    elapsed,
		Stats:      st,
		Handoff:    handoff,
		ScratchNS:  scratchNS,
		ScratchOps: int64(cfg.Workers) * (2*int64(cfg.Scratch) + 1),
	}, nil
}
