package txn

// Unit tests for what has one home in the kernel: the registry, the
// descriptor pool, the statistics flush, the commit-time acquire loop, and
// the atomic loop's handling of every signal, driven through a fake
// strategy. Run under -race in CI.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
	"repro/internal/txrec"
)

// fake is a scripted Strategy: it logs the kernel's calls and holds only
// the records a test acquires through the embedded deferred-update
// descriptor, which it shadows at every Strategy method.
type fake struct {
	Deferred
	calls    []string
	commits  []bool // scripted Validate results, consumed in order; true once exhausted
	lockOK   bool
	retryErr error
}

func (f *fake) log(s string) { f.calls = append(f.calls, s) }
func (f *fake) Begin()       { f.log("begin") }
func (f *fake) Reset()       { f.log("reset") }
func (f *fake) Rollback() {
	f.log("rollback")
	f.Deferred.Restore()
}
func (f *fake) LockReadSet() bool {
	f.log("lock")
	return f.lockOK
}
func (f *fake) RetryWait(context.Context) error {
	f.log("retrywait")
	return f.retryErr
}
func (f *fake) Validate() bool {
	f.log("validate")
	ok := true
	if len(f.commits) > 0 {
		ok, f.commits = f.commits[0], f.commits[1:]
	}
	return ok
}

// newFake returns a kernel whose every descriptor is the one returned fake,
// so a test can script it before and inspect it after each Atomic.
func newFake(t *testing.T, cfg stmapi.CommonConfig) (*Kernel, *fake) {
	t.Helper()
	f := &fake{lockOK: true}
	k := &Kernel{}
	k.Init("fake", objmodel.NewHeap(), cfg, func() Strategy { return f })
	return k, f
}

func (f *fake) take() string {
	s := fmt.Sprint(f.calls)
	f.calls = nil
	return s
}

func TestAtomicCommitAndUserAbort(t *testing.T) {
	k, f := newFake(t, stmapi.CommonConfig{})
	if err := k.Run(nil, -1, func(tx *Txn) error { tx.NReads += 3; tx.NWrites++; return nil }); err != nil {
		t.Fatal(err)
	}
	if got, want := f.take(), "[begin validate reset]"; got != want {
		t.Errorf("commit: calls = %s, want %s", got, want)
	}
	boom := errors.New("boom")
	if err := k.Run(nil, -1, func(tx *Txn) error { tx.NReads++; return boom }); err != boom {
		t.Errorf("err = %v, want the body's error", err)
	}
	if got, want := f.take(), "[begin rollback reset]"; got != want {
		t.Errorf("user abort: calls = %s, want %s", got, want)
	}
	s := k.Stats()
	if s.Starts != 2 || s.Commits != 1 || s.Aborts != 1 || s.TxnReads != 4 || s.TxnWrites != 1 {
		t.Errorf("stats = %+v, want 2 starts, 1 commit, 1 abort, 4 reads, 1 write", s)
	}
	if n := k.ActiveTransactions(); n != 0 {
		t.Errorf("registered descriptors after return = %d, want 0", n)
	}
}

func TestAtomicSignals(t *testing.T) {
	k, f := newFake(t, stmapi.CommonConfig{})

	// Restart, a failed commit and a user Retry each abort and re-execute.
	f.commits = []bool{false}
	runs := 0
	err := k.Run(nil, -1, func(tx *Txn) error {
		runs++
		if tx.Attempt() != runs-1 {
			t.Errorf("attempt = %d on run %d", tx.Attempt(), runs)
		}
		switch runs {
		case 1:
			tx.RestartOn(7)
		case 3:
			tx.Retry()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "[begin rollback begin validate rollback begin rollback retrywait begin validate reset]"
	if got := f.take(); got != want {
		t.Errorf("calls = %s\nwant    %s", got, want)
	}
	if s := k.Stats(); s.Starts != 4 || s.Aborts != 3 || s.Commits != 1 || s.UserRetries != 1 {
		t.Errorf("stats = %+v, want 4 starts, 3 aborts, 1 commit, 1 retry", s)
	}

	// A retry wait that ends with an error ends the loop with it.
	f.retryErr = context.DeadlineExceeded
	if err := k.Run(nil, -1, func(tx *Txn) error { tx.Retry(); return nil }); err != context.DeadlineExceeded {
		t.Errorf("err = %v, want the retry wait's error", err)
	}
	f.take()

	// Another descriptor's signal is not ours to consume.
	func() {
		defer func() {
			if _, ok := recover().(txSignal); !ok {
				t.Error("a foreign transaction's signal did not propagate")
			}
		}()
		other := &Txn{}
		_ = k.Run(nil, -1, func(tx *Txn) error { other.Restart(); return nil })
	}()
	if got, want := f.take(), "[begin rollback reset]"; got != want {
		t.Errorf("foreign signal: calls = %s, want %s", got, want)
	}
}

func TestAtomicCancellation(t *testing.T) {
	k, f := newFake(t, stmapi.CommonConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	err := k.Run(ctx, -1, func(tx *Txn) error {
		tx.Poll(nil) // not cancelled yet: no-op
		cancel()
		tx.Poll(nil)
		t.Error("access after cancellation did not cancel")
		return nil
	})
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if got, want := f.take(), "[begin rollback reset]"; got != want {
		t.Errorf("calls = %s, want %s", got, want)
	}
	// Already cancelled: no descriptor, no attempt.
	if err := k.Run(ctx, -1, func(*Txn) error { t.Error("body ran"); return nil }); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if f.take() != "[]" || k.Stats().Starts != 1 {
		t.Error("a pre-cancelled Atomic began an attempt")
	}

}

func TestAtomicFaults(t *testing.T) {
	k, f := newFake(t, stmapi.CommonConfig{})
	// A fault in an attempt whose read set no longer validates is an
	// artifact of speculation: restart.
	o := k.Heap().New(k.Heap().MustDefineClass(objmodel.ClassSpec{Name: "C", Fields: []objmodel.Field{{Name: "f"}}}))
	runs := 0
	if err := k.Run(nil, -1, func(tx *Txn) error {
		if runs++; runs == 1 {
			tx.Reads.Put(o, txrec.Version(o.Rec.Load())+1) // a version o does not have
			panic("speculative fault")
		}
		return nil
	}); err != nil || runs != 2 {
		t.Errorf("err = %v after %d runs, want nil after 2", err, runs)
	}
	if got, want := f.take(), "[begin rollback begin validate reset]"; got != want {
		t.Errorf("calls = %s, want %s", got, want)
	}
	// A fault in a consistent attempt is the body's own: abort, then propagate.
	func() {
		defer func() {
			if r := recover(); r != "real fault" {
				t.Errorf("recovered %v, want the body's panic", r)
			}
		}()
		_ = k.Run(nil, -1, func(tx *Txn) error { panic("real fault") })
	}()
	if got, want := f.take(), "[begin rollback reset]"; got != want {
		t.Errorf("calls = %s, want %s", got, want)
	}
}

func TestEscalationAndIrrevocable(t *testing.T) {
	const escalateAfter = 2
	k, f := newFake(t, stmapi.CommonConfig{EscalateAfter: escalateAfter})
	var seen []bool
	if err := k.Run(nil, k.escalateFrom(), func(tx *Txn) error {
		seen = append(seen, tx.IsIrrevocable())
		if !tx.IsIrrevocable() {
			if tx.Attempt() > escalateAfter { // the EscalateAfter+2nd attempt
				return errors.New("no escalation after EscalateAfter aborts")
			}
			tx.Restart()
		}
		if k.IrrevocableHolder() != tx.ID() {
			t.Error("irrevocable without the token")
		}
		tx.doomed.Store(true) // a doom is not honored past the switch
		tx.Poll(nil)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seen) != "[false false true]" {
		t.Errorf("irrevocable per attempt = %v, want the third", seen)
	}
	if got, want := f.take(), "[begin rollback begin rollback begin lock validate reset]"; got != want {
		t.Errorf("calls = %s, want %s", got, want)
	}
	s := k.Stats()
	if s.Escalations != 1 || s.IrrevocableTxns != 1 || k.IrrevocableHolder() != 0 {
		t.Errorf("escalations %d, irrevocable txns %d, holder %d; want 1, 1, 0", s.Escalations, s.IrrevocableTxns, k.IrrevocableHolder())
	}

	// A switch whose read set is stale surrenders the token and restarts.
	f.lockOK = false
	runs := 0
	if err := k.Run(nil, -1, func(tx *Txn) error {
		if runs++; runs == 1 {
			tx.BecomeIrrevocable()
			t.Error("a failed switch returned")
		}
		if k.IrrevocableHolder() != 0 {
			t.Error("token still held after a failed switch")
		}
		return nil
	}); err != nil || runs != 2 {
		t.Errorf("err = %v after %d runs, want nil after 2", err, runs)
	}
}

func TestPoolHygiene(t *testing.T) {
	k, f := newFake(t, stmapi.CommonConfig{})
	k.SetInjector(faultinject.New(1))
	o := k.Heap().New(k.Heap().MustDefineClass(objmodel.ClassSpec{Name: "C", Fields: []objmodel.Field{{Name: "f"}}}))
	var last uint64
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		err := k.Run(ctx, -1, func(tx *Txn) error {
			if tx.ID() <= last {
				t.Errorf("id %d not fresh (last %d)", tx.ID(), last)
			}
			last = tx.ID()
			if tx.Reads.Len() != 0 || tx.Owned.Len() != 0 || len(tx.redo) != 0 || tx.Blame != 0 ||
				tx.Doomed() || tx.Dead() || tx.karma.Load() != 0 || tx.IsIrrevocable() || tx.Ctx != ctx || tx.FI == nil {
				t.Errorf("iteration %d: dirty descriptor", i)
			}
			// Dirty everything an incarnation can leave behind.
			tx.Reads.Put(o, 1)
			tx.Owned.Put(o, 1)
			tx.redo = append(tx.redo, stmapi.RedoWrite{})
			tx.karma.Add(5)
			tx.Blame = 5
			return nil
		})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		f.doomed.Store(true) // a doom that lands past the commit point stays on the pooled descriptor
		if f.Ctx != nil || f.FI != nil || f.sink != nil || f.Reads.Len() != 0 || f.Owned.Len() != 0 || len(f.redo) != 0 {
			t.Errorf("iteration %d: pooled descriptor still holds references", i)
		}
	}
}

// TestOwnerIDs pins what the kernel promises of owner IDs, which come from
// per-descriptor blocks of idBlock: a restarted attempt keeps its Atomic's
// ID, two descriptors that run interleaved never share an ID, and the first
// ID of a refilled block is above every ID handed out before it, by any
// descriptor.
func TestOwnerIDs(t *testing.T) {
	k, _ := newFake(t, stmapi.CommonConfig{})
	var ids []uint64
	if err := k.Run(nil, -1, func(tx *Txn) error {
		if ids = append(ids, tx.ID()); len(ids) < 3 {
			tx.Restart()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ids[0] == 0 || ids[1] != ids[0] || ids[2] != ids[0] {
		t.Errorf("IDs per attempt = %v, want one nonzero ID", ids)
	}

	// newFake's kernel hands out one descriptor; these two need their own.
	k = &Kernel{}
	k.Init("fake", objmodel.NewHeap(), stmapi.CommonConfig{}, func() Strategy { return &fake{lockOK: true} })
	given := map[uint64]bool{}
	var top uint64 // the highest ID handed out so far
	next := func(prev *Txn) *Txn {
		if prev != nil {
			k.putTxn(prev)
		}
		tx := k.getTxn(nil)
		id := tx.ID()
		if given[id] {
			t.Fatalf("ID %d handed out twice", id)
		}
		if id == tx.idEnd-idBlock && id <= top { // the first of a fresh block
			t.Fatalf("refilled block starts at %d, not above %d", id, top)
		}
		given[id], top = true, max(top, id)
		return tx
	}
	a := next(nil)
	b := next(nil)
	for range 3 * idBlock {
		if a = next(a); a == b {
			t.Fatal("two live incarnations share a descriptor")
		}
		b = next(b)
	}
	k.putTxn(a)
	k.putTxn(b)
	if len(given) != 2+6*idBlock {
		t.Errorf("%d distinct IDs, want %d", len(given), 2+6*idBlock)
	}
}

func TestRegistryOverflowAndReuse(t *testing.T) {
	var r registry
	const total = regSlots + 16
	txs := make([]*Txn, total)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < total; i += 4 {
				tx := &Txn{id: uint64(i + 1)}
				tx.stamp.Store(tx.id)
				r.add(tx)
				txs[i] = tx
			}
		}()
	}
	wg.Wait()
	n, over := 0, 0
	r.forEach(func(tx *Txn) bool {
		n++
		if tx.slot < 0 {
			over++
		}
		return true
	})
	if n != total || over != 16 {
		t.Errorf("scan saw %d descriptors, %d in overflow; want %d and 16", n, over, total)
	}
	for _, tx := range txs {
		if r.findStamp(tx.id) != tx {
			t.Fatalf("findStamp(%d) missed a live descriptor", tx.id)
		}
	}
	// Reuse: the descriptor stays registered under a new incarnation's ID.
	// The old ID must no longer resolve, the new one must.
	reused := txs[3]
	reused.stamp.Store(9999)
	if r.findStamp(4) != nil || r.findStamp(9999) != reused {
		t.Error("findStamp does not follow the stamp across descriptor reuse")
	}
	for _, tx := range txs {
		r.remove(tx)
	}
	r.forEach(func(*Txn) bool { t.Error("registry not empty after removing everything"); return false })
}

// TestRegistryScanBound: goroutines running transactions keep the registry
// packed at the bottom of its slot array, so a scan walks about one slot per
// goroutine, not the array.
func TestRegistryScanBound(t *testing.T) {
	for _, g := range []int{1, 2, 4, 8} {
		k := &Kernel{}
		cfg := stmapi.CommonConfig{}
		k.Init("fake", objmodel.NewHeap(), cfg, func() Strategy { return &fake{} })
		var wg sync.WaitGroup
		for range g {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 2000 {
					_ = k.Run(nil, -1, func(*Txn) error { return nil })
				}
			}()
		}
		wg.Wait()
		if hi := int(k.reg.hi.Load()); hi > g+1 {
			t.Errorf("%d goroutines: scans walk %d slots, want at most %d", g, hi, g+1)
		}
	}
}

func TestStatsFlushParallel(t *testing.T) {
	k := &Kernel{}
	cfg := stmapi.CommonConfig{}
	k.Init("fake", objmodel.NewHeap(), cfg, func() Strategy { return &fake{} })
	const goroutines, iters = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_ = k.Run(nil, -1, func(tx *Txn) error {
					tx.NReads += 2
					tx.NWrites++
					if tx.Attempt() == 0 && i%4 == 0 {
						tx.Restart()
					}
					return nil
				})
			}
		}()
	}
	wg.Wait()
	const total = goroutines * iters
	s := k.Stats()
	if s.Commits != total || s.Aborts != total/4 || s.Starts != s.Commits+s.Aborts {
		t.Errorf("starts %d, commits %d, aborts %d; want %d commits and %d aborts", s.Starts, s.Commits, s.Aborts, total, total/4)
	}
	if s.TxnReads != 2*s.Starts || s.TxnWrites != s.Starts {
		t.Errorf("reads %d, writes %d over %d attempts; want 2 and 1 per attempt", s.TxnReads, s.TxnWrites, s.Starts)
	}
}

func TestOrphanIsRetiredAndReaped(t *testing.T) {
	k, f := newFake(t, stmapi.CommonConfig{})
	func() {
		defer func() {
			if _, ok := recover().(faultinject.OrphanError); !ok {
				t.Error("Die did not surface an OrphanError")
			}
		}()
		_ = k.Run(nil, -1, func(tx *Txn) error { tx.Die(faultinject.PreValidate); return nil })
	}()
	if got, want := f.take(), "[begin]"; got != want {
		t.Errorf("calls = %s, want %s (no cleanup may run for an orphan)", got, want)
	}
	id := f.ID()
	if k.FindStamp(id) != &f.Txn {
		t.Fatal("the orphan left the registry before being reaped")
	}
	if n := k.ReapDead(); n != 1 {
		t.Errorf("first ReapDead reclaimed %d, want 1", n)
	}
	if n := k.ReapDead(); n != 0 {
		t.Errorf("second ReapDead reclaimed %d, want 0", n)
	}
	if got, want := f.take(), "[rollback]"; got != want {
		t.Errorf("calls = %s, want %s", got, want)
	}
	s := k.Stats()
	if s.ReaperSteals != 1 || s.Aborts != 1 || k.FindStamp(id) != nil || f.Status() != stmapi.Aborted {
		t.Errorf("steals %d, aborts %d, status %v; want 1, 1, aborted and unregistered", s.ReaperSteals, s.Aborts, f.Status())
	}
}

// TestLockWriteSet drives the commit-time acquire loop the deferred-update
// runtimes share (AcquireWriteSet): buffer order, each object once however
// many of its slots are buffered, private and already-held records skipped,
// and every way of failing (the version limit, an injected abort at each
// acquire point, before and between acquisitions) leaving each record
// Shared at the version it had.
func TestLockWriteSet(t *testing.T) {
	k, f := newFake(t, stmapi.CommonConfig{})
	tr := trace.New(trace.Config{Shards: 1})
	k.SetTracer(tr)
	cls := k.Heap().MustDefineClass(objmodel.ClassSpec{Name: "C", Fields: []objmodel.Field{{Name: "f"}, {Name: "g"}}})
	var objs [5]*objmodel.Object
	for i := range objs {
		objs[i] = k.Heap().New(cls)
	}
	k.Heap().AllocPrivate = true
	private := k.Heap().New(cls)
	k.Heap().AllocPrivate = false
	words := func() (w [len(objs)]txrec.Word) {
		for i, o := range objs {
			w[i] = o.Rec.Load()
		}
		return w
	}
	// acquired lists the objects acquired since the trace held mark events.
	acquired := func(mark int) (refs []uint64) {
		for _, ev := range tr.Events()[mark:] {
			if ev.Kind == trace.EvLockAcquire {
				refs = append(refs, ev.Obj)
			}
		}
		return refs
	}
	refs := func(idx ...int) (refs []uint64) {
		for _, i := range idx {
			refs = append(refs, uint64(objs[i].Ref()))
		}
		return refs
	}
	// write buffers slot 0 of each listed object (the fake's Begin leaves
	// the buffer alone, so each body starts from an empty one).
	write := func(idx ...int) {
		f.Buf.Reset()
		for _, i := range idx {
			f.Buf.Put(objs[i], 0, uint64(i))
		}
	}
	before := words()
	abort := errors.New("abort")

	_ = k.Run(nil, -1, func(tx *Txn) error {
		// Held before commit, as an irrevocable body's read leaves it.
		if !f.Acquire(objs[2], objs[2].Rec.Load()) {
			t.Fatal("Acquire lost an uncontended CAS")
		}
		write(4, 2, 0)
		f.Buf.Put(private, 0, 9)
		f.Buf.Put(objs[3], 1, 3)
		f.Buf.Put(objs[0], 1, 1)
		f.Buf.Put(objs[4], 1, 4)
		if !f.AcquireWriteSet(NoLimit) {
			t.Fatal("uncontended AcquireWriteSet failed")
		}
		if got, want := acquired(0), refs(4, 0, 3); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("acquired %v, want %v: buffer order, each object once, without the held and the private one", got, want)
		}
		for _, i := range []int{0, 2, 3, 4} {
			if w := objs[i].Rec.Load(); !txrec.IsExclusive(w) || txrec.Owner(w) != tx.ID() {
				t.Errorf("object %d: record %#x, want Exclusive(self)", i, w)
			}
			if sv, ok := f.Owned.Get(objs[i]); !ok || sv != txrec.Version(before[i]) {
				t.Errorf("object %d: held at %d (%v), want its version %d", i, sv, ok, txrec.Version(before[i]))
			}
		}
		if objs[1].Rec.Load() != before[1] || !private.IsPrivate() || f.Owned.Len() != 4 {
			t.Error("a record outside the write set, or a private one, was touched")
		}
		f.Restore()
		if words() != before || f.Owned.Len() != 0 {
			t.Error("Restore did not restore every record and clear the holdings")
		}
		return abort
	})

	// The version limit: objs[3] was committed above it by somebody else,
	// after objs[4] was acquired.
	objs[3].Rec.Store(txrec.MakeShared(9))
	before = words()
	mark := len(tr.Events())
	_ = k.Run(nil, -1, func(tx *Txn) error {
		write(4, 3, 0)
		if f.AcquireWriteSet(5) {
			t.Fatal("a record above the version limit was acquired")
		}
		if got, want := acquired(mark), refs(4); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("acquired %v before the refusal, want %v", got, want)
		}
		if words() != before || f.Owned.Len() != 0 {
			t.Error("the refused commit kept a record, or changed a version")
		}
		if tx.Blame != uint64(objs[3].Ref()) || k.Clock.Load() < 9 {
			t.Errorf("blame %d, clock %d; want the refused object blamed and the clock raised over its version", tx.Blame, k.Clock.Load())
		}
		return abort
	})

	// An abort at each acquire point, twice: Every 2 fires on arrivals 0 and
	// 2, so a point fails the first call at the first object and the second
	// between its two objects. (PreValidate follows LockWriteSet in the
	// kernel's commit; TestEveryFaultPointFires counts it.)
	for _, c := range []struct {
		point faultinject.Point
		every uint64
		blame [2]int // objs index blamed by each call; -1 none
	}{
		{faultinject.PreAcquire, 2, [2]int{4, 0}},
		{faultinject.PostAcquire, 2, [2]int{4, 0}},
	} {
		in := faultinject.New(1, faultinject.Rule{Point: c.point, Action: faultinject.Abort, Every: c.every})
		k.SetInjector(in)
		_ = k.Run(nil, -1, func(tx *Txn) error {
			for round := 0; round < 2; round++ {
				write(4, 0)
				tx.Blame = 0
				if f.AcquireWriteSet(NoLimit) {
					t.Fatalf("%v, round %d: AcquireWriteSet survived an injected abort", c.point, round)
				}
				if words() != before || f.Owned.Len() != 0 {
					t.Errorf("%v, round %d: an injected abort left a record held or re-versioned", c.point, round)
				}
				want := uint64(0)
				if i := c.blame[round]; i >= 0 {
					want = uint64(objs[i].Ref())
				}
				if tx.Blame != want {
					t.Errorf("%v, round %d: blame %d, want %d", c.point, round, tx.Blame, want)
				}
			}
			return abort
		})
		if n := in.Fired(c.point, faultinject.Abort); n != 2 {
			t.Errorf("%v: %d aborts fired, want 2", c.point, n)
		}
	}
	k.SetInjector(nil)
}
