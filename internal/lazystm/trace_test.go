package lazystm

// Observability tests for the lazy runtime: event sequences around the
// commit-time acquire/validate/write-back protocol, no event loss under
// parallel tracing (-race in CI), commit-validation conflict attribution,
// and the allocation-free disabled path.

import (
	"sync"
	"testing"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
)

type traceFixture struct {
	heap *objmodel.Heap
	rt   *Runtime
	cls  *objmodel.Class
}

func newTraceFixture(t testing.TB, cfg stmapi.CommonConfig) *traceFixture {
	t.Helper()
	h := objmodel.NewHeap()
	rt := New(h, cfg)
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "TCell",
		Fields: []objmodel.Field{{Name: "f"}, {Name: "g"}},
	})
	return &traceFixture{heap: h, rt: rt, cls: cls}
}

func (f *traceFixture) newCell() *objmodel.Object { return f.heap.New(f.cls) }

func TestLazyDisabledTracerAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; exact alloc count only meaningful without -race")
	}
	f := newTraceFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	body := func(tx stmapi.Txn) error {
		tx.Write(o, 0, tx.Read(o, 0)+1)
		return nil
	}
	for i := 0; i < 10; i++ {
		if err := f.rt.Atomic(body); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := f.rt.Atomic(body); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("disabled-tracer lazy transaction allocates %.1f objects, want 0", avg)
	}
}

func TestLazyTraceEventLifecycle(t *testing.T) {
	f := newTraceFixture(t, stmapi.CommonConfig{})
	tr := trace.New(trace.Config{ShardCapacity: 128, Shards: 1})
	f.rt.SetTracer(tr)
	o := f.newCell()
	if err := f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, 0, tx.Read(o, 0)+1)
		_ = tx.Read(o, 0) // buffered read-back
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var kinds []trace.Kind
	for _, ev := range tr.Events() {
		kinds = append(kinds, ev.Kind)
	}
	// Lazy ordering: the lock acquire happens at commit, after all reads
	// and buffered writes; then the commit window, the commit point and the
	// one slot's write-back, before the commit completes.
	want := []trace.Kind{trace.EvBegin, trace.EvRead, trace.EvWrite, trace.EvRead, trace.EvLockAcquire,
		trace.EvCommitPoint, trace.EvWriteBack, trace.EvCommit}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v (sequence %v)", i, kinds[i], want[i], kinds)
		}
	}
	if tr.CommitLatency().Count() != 1 {
		t.Errorf("commit latency count = %d", tr.CommitLatency().Count())
	}
}

func TestLazyTraceNoEventLossParallel(t *testing.T) {
	f := newTraceFixture(t, stmapi.CommonConfig{})
	const goroutines = 8
	const iters = 150
	// 8 events per committed txn (begin/read/write/acquire/commit-point/
	// write-back/commit plus slack for retries); size shards for the worst case of one shard
	// taking the whole stream.
	tr := trace.New(trace.Config{ShardCapacity: goroutines * iters * 8, Shards: 8})
	f.rt.SetTracer(tr)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		o := f.newCell()
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
	if _, dropped := tr.Recorded(); dropped != 0 {
		t.Fatalf("dropped %d events despite sufficient capacity", dropped)
	}
	var commits int
	for _, ev := range tr.Events() {
		if ev.Kind == trace.EvCommit {
			commits++
		}
	}
	if commits != goroutines*iters {
		t.Errorf("commit events = %d, want %d", commits, goroutines*iters)
	}
}

// TestLazyCommitValidationAttribution manufactures a deterministic
// commit-time validation failure and checks the abort is blamed on the
// object whose version moved.
func TestLazyCommitValidationAttribution(t *testing.T) {
	f := newTraceFixture(t, stmapi.CommonConfig{})
	tr := trace.New(trace.Config{ShardCapacity: 1024})
	f.rt.SetTracer(tr)
	hot := f.newCell()
	sink := f.newCell()
	for i := 0; i < 4; i++ {
		attempt := 0
		err := f.rt.Atomic(func(tx stmapi.Txn) error {
			attempt++
			v := tx.Read(hot, 0)
			tx.Write(sink, 0, v)
			if attempt == 1 {
				// Move hot's version before this transaction reaches commit
				// validation: its read set is now stale.
				done := make(chan error, 1)
				go func() {
					done <- f.rt.Atomic(func(tx2 stmapi.Txn) error {
						tx2.Write(hot, 0, tx2.Read(hot, 0)+1)
						return nil
					})
				}()
				if err := <-done; err != nil {
					t.Error(err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	top := tr.Hot().Top(3)
	if len(top) == 0 {
		t.Fatal("no hotspots recorded")
	}
	if top[0].Obj != uint64(hot.Ref()) {
		t.Fatalf("top hotspot = obj %d, want hot obj %d (top %+v)", top[0].Obj, hot.Ref(), top)
	}
	if top[0].Aborts != 4 {
		t.Errorf("hot aborts = %d, want 4", top[0].Aborts)
	}
	for _, e := range top {
		if e.Obj == uint64(sink.Ref()) && e.Aborts > 0 {
			t.Errorf("sink object wrongly blamed: %+v", e)
		}
	}
	if got := tr.Count(trace.EvAbort); got != 4 {
		t.Errorf("abort events = %d, want 4", got)
	}
}

func TestLazyStatsSnapshot(t *testing.T) {
	f := newTraceFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	for i := 0; i < 5; i++ {
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, tx.Read(o, 0)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := f.rt.Stats()
	if s.Commits != 5 || s.Starts != 5 || s.Aborts != 0 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.TxnReads != 5 || s.TxnWrites != 5 {
		t.Errorf("snapshot accesses = %+v", s)
	}
}
