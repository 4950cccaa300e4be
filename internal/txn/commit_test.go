package txn_test

// The transaction's basic contract on every runtime: a commit lands and
// bumps the record, a body's error aborts, Restart re-executes, Retry waits
// for a change, concurrent increments and transfers lose nothing, a
// non-transactional version bump fails validation, a bad granularity is
// rejected at construction and a committed reference store publishes on a
// heap that mints private objects.

import (
	"errors"
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

// TestCommitBasic: a committed body's writes are in memory, its record is
// Shared at the next version and the body reads its own writes. Eager
// writes in place, so memory holds a write before the commit; lazy and
// mvstm buffer it, and memory holds the old value until write-back.
func TestCommitBasic(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		if got := f.rt.Name(); got != name {
			t.Errorf("registry built %q under %q", got, name)
		}
		o := f.cell()
		var inPlace uint64
		if name == "eager" {
			inPlace = 41
		}
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, 41)
			if got := o.LoadSlot(0); got != inPlace {
				t.Errorf("memory holds %d before the commit, want %d", got, inPlace)
			}
			tx.Write(o, 0, tx.Read(o, 0)+1)
			tx.Write(o, 1, 6)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if o.LoadSlot(0) != 42 || o.LoadSlot(1) != 6 {
			t.Errorf("state = (%d,%d), want (42,6)", o.LoadSlot(0), o.LoadSlot(1))
		}
		if w := o.Rec.Load(); !txrec.IsShared(w) || txrec.Version(w) != 2 {
			t.Errorf("record after commit = %#x, want Shared v2", w)
		}
		if s := f.rt.Stats(); s.Commits != 1 || s.Aborts != 0 {
			t.Errorf("commits/aborts = %d/%d, want 1/0", s.Commits, s.Aborts)
		}
	})
}

// TestUserErrorAborts: a body's error aborts the transaction for good and
// is returned; memory holds what it held before. Eager's rollback replays
// its undo log and releases with a version bump (v2); lazy and mvstm never
// took the record, which stays at v1.
func TestUserErrorAborts(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		o := f.cell()
		o.StoreSlot(0, 7)
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, 99)
			return errAborted
		}); !errors.Is(err, errAborted) {
			t.Fatalf("err = %v, want %v", err, errAborted)
		}
		if got := o.LoadSlot(0); got != 7 {
			t.Errorf("slot 0 = %d after the abort, want 7", got)
		}
		want := uint64(1)
		if name == "eager" {
			want = 2
		}
		if w := o.Rec.Load(); !txrec.IsShared(w) || txrec.Version(w) != want {
			t.Errorf("record after abort = %#x, want Shared v%d", w, want)
		}
		if s := f.rt.Stats(); s.Aborts != 1 || s.Commits != 0 {
			t.Errorf("aborts/commits = %d/%d, want 1/0", s.Aborts, s.Commits)
		}
	})
}

// TestRestartReexecutes: Restart discards the attempt and runs the body
// again; only the last attempt's write lands.
func TestRestartReexecutes(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		o := f.cell()
		runs := 0
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			runs++
			tx.Write(o, 0, uint64(runs))
			if runs < 3 {
				tx.Restart()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if runs != 3 || o.LoadSlot(0) != 3 {
			t.Errorf("runs = %d, slot 0 = %d, want 3 and 3", runs, o.LoadSlot(0))
		}
		if n := f.rt.Stats().Aborts; n != 2 {
			t.Errorf("aborts = %d, want 2", n)
		}
	})
}

// TestCounterAtomicity: concurrent increments of one slot lose none.
func TestCounterAtomicity(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		o := f.cell()
		const goroutines, iters = 8, 250
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					if err := f.rt.Atomic(func(tx stmapi.Txn) error {
						tx.Write(o, 0, tx.Read(o, 0)+1)
						return nil
					}); err != nil {
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
	})
}

// TestInvariantPreserved: writers keep x+y == 0 while readers check it
// transactionally; no reader may see a half-done transfer.
func TestInvariantPreserved(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		x, y := f.cell(), f.cell()
		var stop atomic.Bool
		var bad atomic.Int64
		var readers, writers sync.WaitGroup
		for r := 0; r < 4; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for !stop.Load() {
					var a, b uint64
					_ = f.rt.Atomic(func(tx stmapi.Txn) error {
						a, b = tx.Read(x, 0), tx.Read(y, 0)
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
		stop.Store(true)
		readers.Wait()
		if n := bad.Load(); n != 0 {
			t.Errorf("%d isolation violations observed", n)
		}
		if got := x.LoadSlot(0); got != 1600 {
			t.Errorf("x = %d, want 1600", got)
		}
	})
}

// TestRetryWaitsForChange: Retry blocks the transaction until something it
// read changes, then runs the body again, which sees the change.
func TestRetryWaitsForChange(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		o := f.cell()
		var got atomic.Uint64
		done := make(chan error, 1)
		go func() {
			done <- f.rt.Atomic(func(tx stmapi.Txn) error {
				v := tx.Read(o, 0)
				if v == 0 {
					tx.Retry()
				}
				got.Store(v)
				return nil
			})
		}()
		waitFor(t, "the body to retry", func() bool { return f.rt.Stats().UserRetries > 0 })
		within(t, commitAsync(f, o, 5), "the waking commit stalled")
		within(t, done, "the retrying transaction did not wake")
		if v := got.Load(); v != 5 {
			t.Errorf("retry observed %d, want 5", v)
		}
	})
}

// TestValidationDetectsNonTxnVersionBump: a non-transactional write (the
// strong write barrier's acquire, store, clock tick, release) between a
// transaction's read of o and its commit. A transaction that writes o
// restarts on every runtime and its second run sees the store. One that
// writes only another object restarts on eager and lazy, which validate the
// read set; mvstm commits the value its snapshot held: snapshot isolation
// orders it before the store.
func TestValidationDetectsNonTxnVersionBump(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		for _, target := range []string{"o", "another object"} {
			o, x := f.cell(), f.cell()
			dst, slot := o, 1
			if target != "o" {
				dst, slot = x, 0
			}
			runs := 0
			if err := f.rt.Atomic(func(tx stmapi.Txn) error {
				runs++
				v := tx.Read(o, 0)
				if runs == 1 {
					if _, ok := o.Rec.AcquireAnon(); !ok {
						t.Fatal("anonymous acquire failed")
					}
					o.StoreSlot(0, 10)
					f.rt.Heap().Clock().Tick()
					o.Rec.ReleaseAnon()
				}
				tx.Write(dst, slot, v)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			wantRuns, want := 2, uint64(10)
			if name == "mvstm" && target != "o" {
				wantRuns, want = 1, 0
			}
			if got := dst.LoadSlot(slot); runs != wantRuns || got != want {
				t.Errorf("writing %s: %d runs committed %d, want %d runs committing %d", target, runs, got, wantRuns, want)
			}
		}
	})
}

// TestActiveTransactions counts an attempt parked in its body, and none
// once it has committed.
func TestActiveTransactions(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		release, parked := park(f, f.cell(), false)
		if n := f.rt.ActiveTransactions(); n != 1 {
			t.Errorf("active = %d with one attempt parked, want 1", n)
		}
		release()
		within(t, parked, "the parked transaction did not finish")
		if n := f.rt.ActiveTransactions(); n != 0 {
			t.Errorf("active = %d at rest, want 0", n)
		}
	})
}

// TestBadGranularityPanics: a granularity above stmapi.MaxGranularity is
// rejected at construction, before any transaction runs: the package's New
// panics and the registry returns the error.
func TestBadGranularityPanics(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		bad := stmapi.CommonConfig{Granularity: stmapi.MaxGranularity + 1}
		if _, err := stmapi.New(name, objmodel.NewHeap(), bad); err == nil {
			t.Errorf("the registry accepted granularity %d", bad.Granularity)
		}
		defer func() {
			if recover() == nil {
				t.Errorf("New accepted granularity %d", bad.Granularity)
			}
		}()
		constructors[name](objmodel.NewHeap(), bad)
	})
}

// TestRegistryBuiltRuntimePublishes builds the runtime the way drivers do,
// through the stmapi registry, whose factory passes only CommonConfig. On a
// heap that mints private objects (no manifest) a committed reference store
// into a public holder must publish what it stores and what that reaches: a
// private object left reachable from a public one has every barrier skip
// synchronization on it.
func TestRegistryBuiltRuntimePublishes(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		h := objmodel.NewHeap()
		h.AllocPrivate = true
		rt, err := stmapi.New(name, h, stmapi.CommonConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cls := h.MustDefineClass(objmodel.ClassSpec{Name: "Node", Fields: []objmodel.Field{{Name: "next", IsRef: true}}})
		holder, item, child := h.NewPublic(cls), h.New(cls), h.New(cls)
		item.StoreSlot(0, uint64(child.Ref()))
		if !item.IsPrivate() || !child.IsPrivate() {
			t.Fatal("objects not private at birth")
		}
		if err := rt.Atomic(func(tx stmapi.Txn) error {
			tx.WriteRef(holder, 0, item.Ref())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if item.IsPrivate() || child.IsPrivate() {
			t.Errorf("private after a committed store into a public holder: item %v, child %v", item.IsPrivate(), child.IsPrivate())
		}
	})
}
