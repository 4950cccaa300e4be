package lazystm

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
	"repro/internal/txrec"
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

func TestLazyCommitBasic(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.heap.New(f.cls)
	err := f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, 0, 5)
		if got := tx.Read(o, 0); got != 5 {
			t.Errorf("read-own-write = %d", got)
		}
		if got := o.LoadSlot(0); got != 0 {
			t.Errorf("lazy write reached memory before commit: %d", got)
		}
		tx.Write(o, 1, 6)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.LoadSlot(0) != 5 || o.LoadSlot(1) != 6 {
		t.Errorf("state = (%d,%d), want (5,6)", o.LoadSlot(0), o.LoadSlot(1))
	}
	w := o.Rec.Load()
	if !txrec.IsShared(w) || txrec.Version(w) != 2 {
		t.Errorf("record = %#x, want shared v2", w)
	}
}

func TestLazyAbortLeavesMemoryUntouched(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.heap.New(f.cls)
	o.StoreSlot(0, 3)
	err := f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, 0, 99)
		return errAborted
	})
	if !errors.Is(err, errAborted) {
		t.Fatal(err)
	}
	if got := o.LoadSlot(0); got != 3 {
		t.Errorf("slot = %d, want 3", got)
	}
	w := o.Rec.Load()
	if !txrec.IsShared(w) || txrec.Version(w) != 1 {
		t.Errorf("record = %#x, want untouched shared v1", w)
	}
}

func TestLazyValidationFailureRetries(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o, x := f.heap.New(f.cls), f.heap.New(f.cls)
	runs := 0
	err := f.rt.Atomic(func(tx stmapi.Txn) error {
		runs++
		v := tx.Read(o, 0)
		if runs == 1 {
			// Conflicting NT write barrier bumps the version before commit.
			if _, ok := o.Rec.AcquireAnon(); !ok {
				t.Fatal("acquire failed")
			}
			o.StoreSlot(0, 7)
			// Like the real barrier (strong.Barriers.Write), tick the commit
			// clock before the release publishes the value, so stale
			// snapshots lose the validation fast path.
			f.heap.Clock().Tick()
			o.Rec.ReleaseAnon()
		}
		tx.Write(x, 0, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Errorf("runs = %d, want 2", runs)
	}
	if got := x.LoadSlot(0); got != 7 {
		t.Errorf("x = %d, want 7", got)
	}
}

func TestLazyCounterAtomicity(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.heap.New(f.cls)
	const (
		goroutines = 8
		iters      = 250
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_ = f.rt.Atomic(func(tx stmapi.Txn) error {
					tx.Write(o, 0, tx.Read(o, 0)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if got := o.LoadSlot(0); got != goroutines*iters {
		t.Errorf("counter = %d, want %d", got, goroutines*iters)
	}
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

// TestGranularWritebackOverwritesNeighbour reproduces the lazy granular
// lost update: the 2-slot write-back restores the snapshotted neighbour,
// erasing an intervening update.
func TestGranularWritebackOverwritesNeighbour(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{Granularity: 2})
	o := f.heap.New(f.cls)
	o.StoreSlot(1, 10)
	inBody := make(chan struct{})
	wrote := make(chan struct{})
	done := make(chan struct{})
	var once sync.Once
	go func() {
		_ = f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, 1) // span buffer captures g == 10
			once.Do(func() { close(inBody) })
			<-wrote
			return nil
		})
		close(done)
	}()
	<-inBody
	o.StoreSlot(1, 77) // weakly-atomic NT update to the adjacent field
	close(wrote)
	<-done
	if got := o.LoadSlot(1); got != 10 {
		t.Fatalf("g = %d; want 10: the write-back must lose the NT update (GLU)", got)
	}
}

func TestGranularityOneWritebackDoesNotSpan(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{Granularity: 1})
	o := f.heap.New(f.cls)
	o.StoreSlot(1, 10)
	inBody := make(chan struct{})
	wrote := make(chan struct{})
	done := make(chan struct{})
	go func() {
		_ = f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, 1)
			select {
			case <-inBody:
			default:
				close(inBody)
			}
			<-wrote
			return nil
		})
		close(done)
	}()
	<-inBody
	o.StoreSlot(1, 77)
	close(wrote)
	<-done
	if got := o.LoadSlot(1); got != 77 {
		t.Errorf("g = %d, want 77 (slot-granular buffer must not touch it)", got)
	}
}

// TestQuiescenceOrdersCompletion: with quiescence, when Atomic returns all
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

func TestLazyRetry(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.heap.New(f.cls)
	done := make(chan uint64)
	started := make(chan struct{})
	var once sync.Once
	go func() {
		var got uint64
		_ = f.rt.Atomic(func(tx stmapi.Txn) error {
			v := tx.Read(o, 0)
			once.Do(func() { close(started) })
			if v == 0 {
				tx.Retry()
			}
			got = v
			return nil
		})
		done <- got
	}()
	<-started
	_ = f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, 0, 8)
		return nil
	})
	if got := <-done; got != 8 {
		t.Errorf("retry observed %d, want 8", got)
	}
}

func TestLazyRestart(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.heap.New(f.cls)
	runs := 0
	err := f.rt.Atomic(func(tx stmapi.Txn) error {
		runs++
		tx.Write(o, 0, uint64(runs))
		if runs < 2 {
			tx.Restart()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2 || o.LoadSlot(0) != 2 {
		t.Errorf("runs = %d, slot = %d", runs, o.LoadSlot(0))
	}
}

func TestLazyMultiObjectCommitSorted(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	objs := make([]*objmodel.Object, 8)
	for i := range objs {
		objs[i] = f.heap.New(f.cls)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = f.rt.Atomic(func(tx stmapi.Txn) error {
					// Touch objects in different orders per goroutine; the
					// sorted commit-time acquisition avoids deadlock.
					if g%2 == 0 {
						for _, o := range objs {
							tx.Write(o, 0, tx.Read(o, 0)+1)
						}
					} else {
						for j := len(objs) - 1; j >= 0; j-- {
							tx.Write(objs[j], 0, tx.Read(objs[j], 0)+1)
						}
					}
					return nil
				})
			}
		}(g)
	}
	wg.Wait()
	for i, o := range objs {
		if got := o.LoadSlot(0); got != 400 {
			t.Errorf("obj %d = %d, want 400", i, got)
		}
	}
}

func TestLazyBadGranularityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("granularity 5 accepted")
		}
	}()
	New(objmodel.NewHeap(), stmapi.CommonConfig{Granularity: 5})
}
