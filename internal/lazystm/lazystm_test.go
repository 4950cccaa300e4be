package lazystm

// Lazy versioning's own structure: the commit window between the commit
// point and the write-back, and the span buffer's stale neighbour. The
// promises lazy shares with the other runtimes are the kernel's rows in
// internal/txn.

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
)

// errAborted is what a body returns to abort its transaction for good: the
// runtime rolls back and returns it without retrying.
var errAborted = errors.New("aborted by the body")

type fixture struct {
	heap *objmodel.Heap
	rt   *Runtime
	cls  *objmodel.Class
}

func newFixture(t testing.TB, cfg stmapi.CommonConfig) *fixture {
	t.Helper()
	h := objmodel.NewHeap()
	rt := New(h, cfg)
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name: "Cell",
		Fields: []objmodel.Field{
			{Name: "f"}, {Name: "g"}, {Name: "next", IsRef: true},
		},
	})
	return &fixture{heap: h, rt: rt, cls: cls}
}

// traceSink installs a tracer on the fixture's runtime whose synchronous
// sink is fn. fn runs on the recording goroutine, so blocking in it at a
// trace.EvCommitPoint holds that commit inside its window.
func (f *fixture) traceSink(fn func(trace.Event)) {
	tr := trace.New(trace.Config{Shards: 1, ShardCapacity: 64})
	tr.SetSink(trace.SinkFunc(fn))
	f.rt.SetTracer(tr)
}

// TestCommitWindowVisible proves the defining lazy-versioning property the
// paper's Section 2.3 builds on: there is a window after the commit point
// where a racing plain read still sees the old value.
func TestCommitWindowVisible(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.heap.New(f.cls)
	var observed uint64
	f.traceSink(func(ev trace.Event) {
		if ev.Kind == trace.EvCommitPoint {
			// Logically committed; memory must still hold the old value.
			observed = o.LoadSlot(0)
		}
	})
	err := f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, 0, 42)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if observed != 0 {
		t.Errorf("value at commit point = %d, want 0 (write-back must be pending)", observed)
	}
	if o.LoadSlot(0) != 42 {
		t.Errorf("final = %d", o.LoadSlot(0))
	}
}

// TestGranularSnapshotServesStaleNeighbour reproduces the mechanism behind
// the granular inconsistent read (GIR): with 2-slot granularity, writing
// slot f snapshots slot g; a later in-transaction read of g is served from
// the stale buffer.
func TestGranularSnapshotServesStaleNeighbour(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{Granularity: 2})
	o := f.heap.New(f.cls)
	o.StoreSlot(1, 10) // g
	err := f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, 0, 1) // snapshots g == 10 into the buffer
		// Another thread updates g in memory (barriered NT write).
		if _, ok := o.Rec.AcquireAnon(); !ok {
			t.Fatal("acquire failed")
		}
		o.StoreSlot(1, 20)
		o.Rec.ReleaseAnon()
		if got := tx.Read(o, 1); got != 10 {
			t.Errorf("in-txn read of g = %d, want stale 10 from the span buffer", got)
		}
		return errAborted // do not write back; we only probe the buffer
	})
	if !errors.Is(err, errAborted) {
		t.Fatal(err)
	}
}

// TestQuiescenceOrdersCompletion: the write-back is done when Atomic
// returns. With quiescence, when Atomic returns all
// earlier-serialized transactions' write-backs are complete, because the
// kernel's grace period waits out every attempt in flight (internal/txn's
// TestQuiescenceIsAGracePeriod); without it a commit waits for nobody, and
// still returns only after its own write-back.
func TestQuiescenceOrdersCompletion(t *testing.T) {
	for _, quiescence := range []bool{true, false} {
		name := "quiescence off"
		if quiescence {
			name = "quiescence on"
		}
		t.Run(name, func(t *testing.T) {
			f := newFixture(t, stmapi.CommonConfig{Quiescence: quiescence})
			o := f.heap.New(f.cls)
			const n = 50
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						_ = f.rt.Atomic(func(tx stmapi.Txn) error {
							tx.Write(o, 0, tx.Read(o, 0)+1)
							return nil
						})
						// After return, our own update (and with quiescence
						// every serialized predecessor's) is in memory: the
						// plain load can never lag behind it.
						if got := o.LoadSlot(0); got == 0 {
							t.Error("own committed update not visible after Atomic returned")
							return
						}
					}
				}()
			}
			wg.Wait()
			if got := o.LoadSlot(0); got != 4*n {
				t.Errorf("counter = %d, want %d", got, 4*n)
			}
		})
	}
}
