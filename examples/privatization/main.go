// Privatization: the paper's Figure 1 as an executable experiment.
//
// Thread 1 atomically removes an item from a shared list and then reads
// its two fields OUTSIDE any transaction — the item is private now, so
// that should be safe, exactly as it is with locks. Thread 2 atomically
// increments both fields of the first item while it is still shared.
//
// With locks (and with strong atomicity) r1 == r2 always: either both
// increments happened before the privatization or neither did. Under a
// weakly-atomic lazy-versioning STM, Thread 2's write-back can still be
// in flight after its commit, so Thread 1 can read one field old and one
// field new (r1 != r2) — the paper's motivating bug. This program runs
// the idiom many times under each regime and counts violations.
//
// Run: go run ./examples/privatization
package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// regimes are the systems Figure 1 runs on; "strong-lazy" gets the Section
// 3.3 ordering barriers, "strong-eager" the Figure 9 ones.
var regimes = []struct {
	name string
	cfg  core.Config
}{
	{"weak-lazy", core.Config{Versioning: "lazy"}},
	{"strong-lazy", core.Config{Versioning: "lazy", Strong: true}},
	{"strong-eager", core.Config{Versioning: "eager", Strong: true}},
}

// oneTrial runs Figure 1 once on a fresh system and reports whether
// r1 != r2 was observed.
func oneTrial(cfg core.Config) bool {
	sys := core.MustNewSystem(cfg)
	item, _ := sys.DefineClass("Item", core.Field{Name: "val1"}, core.Field{Name: "val2"})
	list, _ := sys.DefineClass("List", core.Field{Name: "head", IsRef: true})
	l := sys.New(list)
	it := sys.New(item)
	// Pre-publication init: no transaction has seen these objects yet.
	//stmvet:ignore nakedaccess,privatization -- deliberately reproduces Figure 1: raw init before publication
	l.StoreSlot(0, uint64(it.Ref()))

	// Widen the write-back window so the race is observable: a synchronous
	// trace sink sees the lazy transaction's commit point, announces it and
	// then holds the write-back until Thread 1 has probed (bounded, so the
	// strong regimes — whose probes rightly block on the held record — make
	// progress once the window closes). The eager runtime writes in place:
	// it has no write-back window to widen, so its trials run untraced.
	lazy := cfg.Versioning == "lazy"
	gate := make(chan struct{})
	probed := make(chan struct{})
	if lazy {
		var once sync.Once
		tr := trace.New(trace.Config{Shards: 1, ShardCapacity: 64})
		tr.SetSink(trace.SinkFunc(func(ev trace.Event) {
			if ev.Kind != trace.EvCommitPoint {
				return
			}
			once.Do(func() { close(gate) })
			select {
			case <-probed:
			case <-time.After(2 * time.Millisecond):
			}
		}))
		sys.RT.SetTracer(tr)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // Thread 2: increment both fields of the shared item
		defer wg.Done()
		_ = sys.Atomic(func(tx core.Tx) error {
			if head := tx.ReadRef(l, 0); head != 0 {
				o := sys.Deref(head)
				tx.Write(o, 0, tx.Read(o, 0)+1)
				tx.Write(o, 1, tx.Read(o, 1)+1)
			}
			return nil
		})
	}()

	// Thread 1: wait for Thread 2 to commit, privatize, then read outside
	// any transaction — the Figure 1 idiom.
	if lazy {
		<-gate
	} else {
		wg.Wait()
	}
	var ref core.ObjRef
	_ = sys.Atomic(func(tx core.Tx) error {
		ref = tx.ReadRef(l, 0)
		tx.WriteRef(l, 0, 0)
		return nil
	})
	o := sys.Deref(ref)
	r1 := sys.Read(o, 0)
	close(probed) // the pending write-back lands between the two reads
	wg.Wait()
	r2 := sys.Read(o, 1)
	// Thread 2 increments both fields atomically, so a consistent view has
	// r1 == r2 (either both incremented or neither). r1 != r2 means the
	// privatized reads raced with a committed transaction's write-back.
	return r1 != r2
}

func main() {
	const trials = 300
	fmt.Println("Figure 1 privatization idiom, many trials per regime:")
	for _, r := range regimes {
		violations := 0
		for i := 0; i < trials; i++ {
			if oneTrial(r.cfg) {
				violations++
			}
		}
		verdict := "SAFE"
		if violations > 0 {
			verdict = "r1 != r2 OBSERVED (isolation/ordering violated)"
		}
		fmt.Printf("  %-13s %4d/%d violations  -> %s\n", r.name, violations, trials, verdict)
	}
	fmt.Println("\nThe weakly-atomic lazy STM exhibits the Figure 1 bug; the")
	fmt.Println("ordering read barriers of Section 3.3 (strong-lazy) and the")
	fmt.Println("eager strong-atomicity system eliminate it.")
}
