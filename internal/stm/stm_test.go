package stm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
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
	return newFixtureOn(t, objmodel.NewHeap(), cfg)
}

// newDEAFixture is newFixture on a heap whose objects are born private
// (dynamic escape analysis): the heap decides, the runtime has no option.
func newDEAFixture(t testing.TB) *fixture {
	t.Helper()
	h := objmodel.NewHeap()
	h.AllocPrivate = true
	return newFixtureOn(t, h, stmapi.CommonConfig{})
}

func newFixtureOn(t testing.TB, h *objmodel.Heap, cfg stmapi.CommonConfig) *fixture {
	t.Helper()
	rt := New(h, cfg)
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name: "Cell",
		Fields: []objmodel.Field{
			{Name: "f"}, {Name: "g"}, {Name: "next", IsRef: true},
		},
	})
	return &fixture{heap: h, rt: rt, cls: cls}
}

func (f *fixture) newCell() *objmodel.Object { return f.heap.New(f.cls) }

func TestCommitBasic(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	err := f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, 0, 41)
		tx.Write(o, 0, tx.Read(o, 0)+1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := o.LoadSlot(0); got != 42 {
		t.Errorf("slot0 = %d, want 42", got)
	}
	w := o.Rec.Load()
	if !txrec.IsShared(w) || txrec.Version(w) != 2 {
		t.Errorf("record after commit = %#x, want shared v2", w)
	}
	if f.rt.Counters.Commits.Load() != 1 {
		t.Errorf("commits = %d", f.rt.Counters.Commits.Load())
	}
}

func TestUserErrorAborts(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	o.StoreSlot(0, 7)
	myErr := errors.New("boom")
	err := f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, 0, 99)
		return myErr
	})
	if !errors.Is(err, myErr) {
		t.Fatalf("err = %v, want %v", err, myErr)
	}
	if got := o.LoadSlot(0); got != 7 {
		t.Errorf("slot0 = %d after abort, want 7 (rolled back)", got)
	}
	w := o.Rec.Load()
	if !txrec.IsShared(w) {
		t.Fatalf("record not released after abort: %#x", w)
	}
	if txrec.Version(w) != 2 {
		t.Errorf("abort must bump version; got v%d", txrec.Version(w))
	}
	if f.rt.Counters.Aborts.Load() != 1 {
		t.Errorf("aborts = %d, want 1", f.rt.Counters.Aborts.Load())
	}
}

func TestRestartReexecutes(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	runs := 0
	err := f.rt.Atomic(func(tx stmapi.Txn) error {
		runs++
		tx.Write(o, 0, uint64(runs))
		if runs < 3 {
			tx.Restart()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 3 {
		t.Errorf("runs = %d, want 3", runs)
	}
	if got := o.LoadSlot(0); got != 3 {
		t.Errorf("slot0 = %d, want 3", got)
	}
	if f.rt.Counters.Aborts.Load() != 2 {
		t.Errorf("aborts = %d, want 2", f.rt.Counters.Aborts.Load())
	}
}

func TestRollbackReverseOrder(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	o.StoreSlot(0, 100)
	err := f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, 0, 1)
		tx.Write(o, 0, 2)
		tx.Write(o, 0, 3)
		return errAborted
	})
	if !errors.Is(err, errAborted) {
		t.Fatal(err)
	}
	if got := o.LoadSlot(0); got != 100 {
		t.Errorf("slot0 = %d, want original 100", got)
	}
}

// TestCounterAtomicity runs concurrent increment transactions and checks
// that no update is lost.
func TestCounterAtomicity(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	const (
		goroutines = 8
		iters      = 300
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := f.rt.Atomic(func(tx stmapi.Txn) error {
					tx.Write(o, 0, tx.Read(o, 0)+1)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := o.LoadSlot(0); got != goroutines*iters {
		t.Errorf("counter = %d, want %d", got, goroutines*iters)
	}
}

// TestInvariantPreserved maintains x+y == 0 across transfer transactions
// while readers check the invariant transactionally.
func TestInvariantPreserved(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	x, y := f.newCell(), f.newCell()
	stop := make(chan struct{})
	var bad atomic.Int64
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var a, b int64
				_ = f.rt.Atomic(func(tx stmapi.Txn) error {
					a = int64(tx.Read(x, 0))
					b = int64(tx.Read(y, 0))
					return nil
				})
				if a+b != 0 {
					bad.Add(1)
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 400; i++ {
				_ = f.rt.Atomic(func(tx stmapi.Txn) error {
					tx.Write(x, 0, tx.Read(x, 0)+1)
					tx.Write(y, 0, tx.Read(y, 0)-1)
					return nil
				})
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if bad.Load() != 0 {
		t.Errorf("%d isolation violations observed", bad.Load())
	}
	if x.LoadSlot(0) != 1600 {
		t.Errorf("x = %d, want 1600", x.LoadSlot(0))
	}
}

func TestRetryWaitsForChange(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	done := make(chan uint64)
	go func() {
		var got uint64
		_ = f.rt.Atomic(func(tx stmapi.Txn) error {
			v := tx.Read(o, 0)
			if v == 0 {
				tx.Retry()
			}
			got = v
			return nil
		})
		done <- got
	}()
	// Let the retry engage, then satisfy it from another transaction.
	for f.rt.Counters.UserRetries.Load() == 0 {
	}
	if err := f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, 0, 5)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := <-done; got != 5 {
		t.Errorf("retry observed %d, want 5", got)
	}
}

// TestValidationDetectsNonTxnVersionBump simulates a strong-atomicity
// non-transactional write (acquire-anonymous + release) between a
// transactional read and commit; the transaction must abort and re-execute.
func TestValidationDetectsNonTxnVersionBump(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	runs := 0
	err := f.rt.Atomic(func(tx stmapi.Txn) error {
		runs++
		v := tx.Read(o, 0)
		if runs == 1 {
			// Simulate the NT write barrier: acquire, store, tick, release.
			// Like the real barrier (strong.Barriers.Write) the commit clock
			// ticks before the release publishes the value, so stale snapshots
			// lose the validation fast path.
			if _, ok := o.Rec.AcquireAnon(); !ok {
				t.Fatal("acquire failed")
			}
			o.StoreSlot(0, 10)
			f.heap.Clock().Tick()
			o.Rec.ReleaseAnon()
		}
		tx.Write(o, 1, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Errorf("runs = %d, want 2 (validation failure forces retry)", runs)
	}
	if got := o.LoadSlot(1); got != 10 {
		t.Errorf("slot1 = %d, want 10 (re-execution saw the NT write)", got)
	}
}

func TestDoomedReadRestarts(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	runs := 0
	err := f.rt.Atomic(func(tx stmapi.Txn) error {
		runs++
		_ = tx.Read(o, 0)
		if runs == 1 {
			// Bump the version outside the transaction.
			if _, ok := o.Rec.AcquireAnon(); !ok {
				t.Fatal("acquire failed")
			}
			o.Rec.ReleaseAnon()
			// Second read of the same object at a new version must restart.
			_ = tx.Read(o, 0)
			t.Error("doomed second read did not restart")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Errorf("runs = %d, want 2", runs)
	}
}

// TestForeignPanicWhileDoomedRestarts checks the managed-runtime doomed
// transaction story: a panic raised while the read set is invalid converts
// to an abort-and-restart instead of propagating.
func TestForeignPanicWhileDoomedRestarts(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	runs := 0
	err := f.rt.Atomic(func(stx stmapi.Txn) error {
		tx := stx.(*Txn)
		runs++
		tx.Reads.Put(o, 999) // forge an invalid read entry: transaction is doomed
		if runs == 1 {
			panic(objmodel.ErrNullDeref)
		}
		tx.Reads.Delete(o)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Errorf("runs = %d, want 2", runs)
	}
}

func TestForeignPanicWhileValidPropagates(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	o.StoreSlot(0, 5)
	defer func() {
		if r := recover(); r != "user panic" {
			t.Errorf("recovered %v, want user panic", r)
		}
		if o.LoadSlot(0) != 5 {
			t.Error("no rollback before propagating panic is acceptable only if slot unchanged")
		}
	}()
	_ = f.rt.Atomic(func(tx stmapi.Txn) error {
		panic("user panic")
	})
}

func TestDEAPrivateAccessSkipsLocking(t *testing.T) {
	f := newDEAFixture(t)
	o := f.newCell()
	if !o.IsPrivate() {
		t.Fatal("object not private at birth")
	}
	err := f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, 0, 9)
		if !o.IsPrivate() {
			t.Error("private write acquired the record")
		}
		if got := tx.Read(o, 0); got != 9 {
			t.Errorf("read-own-write on private object = %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !o.IsPrivate() {
		t.Error("object should remain private after commit")
	}
}

func TestDEAPrivateRollback(t *testing.T) {
	f := newDEAFixture(t)
	o := f.newCell()
	o.StoreSlot(0, 3)
	_ = f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, 0, 50)
		return errAborted
	})
	if got := o.LoadSlot(0); got != 3 {
		t.Errorf("private object not rolled back: %d", got)
	}
}

// TestDEATxnWritePublishes verifies Section 4's rule: a transactional write
// of a reference into a public object immediately publishes the referenced
// private subgraph, before commit.
func TestDEATxnWritePublishes(t *testing.T) {
	f := newDEAFixture(t)
	pub := f.heap.NewPublic(f.cls)
	priv := f.newCell()
	child := f.newCell()
	priv.StoreSlot(2, uint64(child.Ref()))
	err := f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.WriteRef(pub, 2, priv.Ref())
		if priv.IsPrivate() || child.IsPrivate() {
			t.Error("referenced subgraph not published immediately at the write")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRegistryBuiltEagerPublishes builds the runtime the way drivers do,
// through the stmapi registry, whose factory can pass only CommonConfig. On
// a heap that mints private objects it must still publish: a private-born
// object left private after being written into a public holder is reachable
// by other threads with every barrier skipping synchronization on it.
func TestRegistryBuiltEagerPublishes(t *testing.T) {
	h := objmodel.NewHeap()
	h.AllocPrivate = true
	rt, err := stmapi.New("eager", h, stmapi.CommonConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cls := h.MustDefineClass(objmodel.ClassSpec{Name: "Cell", Fields: []objmodel.Field{{Name: "next", IsRef: true}}})
	holder, item := h.NewPublic(cls), h.New(cls)
	if !item.IsPrivate() {
		t.Fatal("object not private at birth")
	}
	if err := rt.Atomic(func(tx stmapi.Txn) error {
		tx.WriteRef(holder, 0, item.Ref())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if item.IsPrivate() {
		t.Error("private-born object still private after a committed write into a public holder")
	}
}

func TestDEAWriteIntoPrivateDoesNotPublish(t *testing.T) {
	f := newDEAFixture(t)
	container := f.newCell()
	child := f.newCell()
	err := f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.WriteRef(container, 2, child.Ref())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !child.IsPrivate() {
		t.Error("write into a private container must not publish the value")
	}
}

// TestGranularitySpanUndo checks that with 2-slot granularity an abort
// restores the *adjacent* slot too — the raw material of the granular lost
// update anomaly (Section 2.4).
func TestGranularitySpanUndo(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{Granularity: 2})
	o := f.newCell()
	o.StoreSlot(0, 1) // f
	o.StoreSlot(1, 2) // g
	barrier := make(chan struct{})
	resume := make(chan struct{})
	done := make(chan struct{})
	go func() {
		_ = f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, 42) // undo entry captures slots {0,1} = {1,2}
			close(barrier)
			<-resume
			return errAborted
		})
		close(done)
	}()
	<-barrier
	// A (weakly-atomic) non-transactional write to the adjacent slot g.
	o.StoreSlot(1, 99)
	close(resume)
	<-done
	if got := o.LoadSlot(1); got != 2 {
		// The rollback restored g from the 2-slot undo span: the
		// non-transactional update was lost, as Section 2.4 predicts.
		t.Fatalf("slot g = %d; expected the granular lost update to restore 2", got)
	}
	if got := o.LoadSlot(0); got != 1 {
		t.Errorf("slot f = %d, want 1", got)
	}
}

func TestGranularityOneDoesNotSpan(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{Granularity: 1})
	o := f.newCell()
	o.StoreSlot(1, 2)
	sync1 := make(chan struct{})
	resume := make(chan struct{})
	done := make(chan struct{})
	go func() {
		_ = f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, 42)
			close(sync1)
			<-resume
			return errAborted
		})
		close(done)
	}()
	<-sync1
	o.StoreSlot(1, 99)
	close(resume)
	<-done
	if got := o.LoadSlot(1); got != 99 {
		t.Errorf("slot g = %d, want 99 (field-granular undo must not touch it)", got)
	}
}

// TestQuiescenceWaitsForActive: a committed transaction in quiescence mode
// must not return while another transaction that started earlier is active.
// The long transaction records its completion from inside its body: the
// quiescing committer is released the moment the long transaction's status
// leaves Active, which nothing orders against what the long goroutine does
// after its Atomic returns.
func TestQuiescenceWaitsForActive(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{Quiescence: true})
	a, b := f.newCell(), f.newCell()
	inBody := make(chan struct{})
	finish := make(chan struct{})
	var order []string
	var mu sync.Mutex
	push := func(s string) { mu.Lock(); order = append(order, s); mu.Unlock() }
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // long-running transaction
		defer wg.Done()
		_ = f.rt.Atomic(func(tx stmapi.Txn) error {
			_ = tx.Read(a, 0)
			close(inBody)
			<-finish
			push("long-done")
			return nil
		})
	}()
	go func() { // committer that must quiesce
		defer wg.Done()
		<-inBody
		_ = f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(b, 0, 1)
			return nil
		})
		push("commit-returned")
	}()
	go func() {
		// Release the long transaction after giving the committer a chance
		// to reach its quiesce wait.
		<-inBody
		for f.rt.Counters.Commits.Load() == 0 {
		}
		close(finish)
	}()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "long-done" {
		t.Errorf("order = %v, want long transaction to finish before quiesced commit returns", order)
	}
}

func TestStatsCounting(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	_ = f.rt.Atomic(func(tx stmapi.Txn) error {
		_ = tx.Read(o, 0)
		tx.Write(o, 0, 1)
		return nil
	})
	if f.rt.Counters.TxnReads.Load() != 1 || f.rt.Counters.TxnWrites.Load() != 1 {
		t.Errorf("reads/writes = %d/%d, want 1/1",
			f.rt.Counters.TxnReads.Load(), f.rt.Counters.TxnWrites.Load())
	}
	if f.rt.Counters.Starts.Load() != 1 {
		t.Errorf("starts = %d", f.rt.Counters.Starts.Load())
	}
}

func TestActiveTransactions(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	inBody := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_ = f.rt.Atomic(func(tx stmapi.Txn) error {
			close(inBody)
			<-release
			return nil
		})
	}()
	<-inBody
	if n := f.rt.ActiveTransactions(); n != 1 {
		t.Errorf("active = %d, want 1", n)
	}
	close(release)
}

func TestBadGranularityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("granularity 3 accepted")
		}
	}()
	New(objmodel.NewHeap(), stmapi.CommonConfig{Granularity: 3})
}

func ExampleRuntime_Atomic() {
	heap := objmodel.NewHeap()
	rt := New(heap, stmapi.CommonConfig{})
	acct := heap.MustDefineClass(objmodel.ClassSpec{
		Name:   "Account",
		Fields: []objmodel.Field{{Name: "balance"}},
	})
	a, b := heap.New(acct), heap.New(acct)
	a.StoreSlot(0, 100)
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		amt := uint64(30)
		tx.Write(a, 0, tx.Read(a, 0)-amt)
		tx.Write(b, 0, tx.Read(b, 0)+amt)
		return nil
	})
	fmt.Println(a.LoadSlot(0), b.LoadSlot(0))
	// Output: 70 30
}

// TestPooledDescriptorClean: eager's share of a clean pooled descriptor, its
// undo log (eager's in-place versioning record), comes back empty; the
// kernel's share is internal/txn's TestPooledDescriptorClean row.
func TestPooledDescriptorClean(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	for i := 0; i < 20; i++ {
		if err := f.rt.Atomic(func(stx stmapi.Txn) error {
			tx := stx.(*Txn)
			if len(tx.undo) != 0 {
				t.Errorf("iteration %d: dirty undo log (%d entries)", i, len(tx.undo))
			}
			tx.Write(o, 0, uint64(i))
			tx.Write(o, 1, uint64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}
