package stm

// Eager versioning's own structure: the undo log, encounter-time ownership
// and validation, the dynamic-escape-analysis barriers and the quiescence
// ordering of eager's in-place commits. The promises eager shares with the
// other runtimes are the kernel's rows in internal/txn.

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
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

// TestRollbackReverseOrder: the undo log replays the last write first, so
// three writes to one slot roll back to the value before the first.
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

// TestDoomedReadRestarts: encounter-time validation: a second read of an
// object whose version moved restarts the attempt at the read.
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

// TestForeignPanicWhileValidPropagates: a panic from a body whose read set
// is still valid is the program's, and propagates.
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

// TestDEAPrivateAccessSkipsLocking: a private object is written in place
// without acquiring its record, and stays private after the commit.
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

// TestDEAPrivateRollback: a private object's write is still undo-logged and
// rolled back.
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

// TestDEAWriteIntoPrivateDoesNotPublish: a reference stored into a private
// container stays private.
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
		// to reach its quiesce wait. The commit shows in Stats while the
		// committer waits: a commit's statistics batch is published before
		// the grace period.
		<-inBody
		for f.rt.Stats().Commits == 0 {
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
