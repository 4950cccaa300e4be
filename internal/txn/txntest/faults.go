package txntest

// Fault and orphan checks of the commit-time locking protocol the
// deferred-update runtimes share (txn.Deferred): an injected crash cleans up
// as its stage requires, a crash or an orphan inside the commit window never
// stalls a quiescing committer, and a ReapDead sweep restores or completes
// what an orphan held. Two check names and their messages keep the
// vocabulary of the write-back ticket chain the kernel's quiescence grace
// period replaced: the "ordering" and the "tickets" they speak of are that
// grace period. Written against stmapi.Runtime alone; a runtime with a commit
// gate must also come out of each scenario with the gate empty.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/txrec"
)

// gateEmpty fails the test if the runtime has a commit gate and a committer
// is still counted inside it: a crash or an orphan in the commit window must
// not leak the gate, or every later irrevocable switch and live checkpoint
// waits forever.
func (f Fixture) gateEmpty(t *testing.T) {
	t.Helper()
	if g, ok := f.rt.(interface {
		DrainCommitters(time.Duration) bool
	}); ok && !g.DrainCommitters(0) {
		t.Error("commit gate not empty afterwards")
	}
}

// write commits a transaction of its own storing v to o's slot.
func (f Fixture) write(o *objmodel.Object, slot int, v uint64) error {
	return f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, slot, v)
		return nil
	})
}

// writeWithin runs write on another goroutine and fails the test with
// stalled if it has not returned after five seconds.
func (f Fixture) writeWithin(t *testing.T, o *objmodel.Object, slot int, v uint64, stalled string) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f.write(o, slot, v) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("successor transaction: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal(stalled)
	}
}

// crashingWrite runs write under an injector that crashes it and returns the
// CrashError the simulated thread death surfaced, nil if there was none.
func (f Fixture) crashingWrite(o *objmodel.Object, slot int, v uint64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ce, ok := r.(faultinject.CrashError)
			if !ok {
				panic(r)
			}
			err = ce
		}
	}()
	return f.write(o, slot, v)
}

// orphan runs a write of v to o's slot 0 on its own goroutine, which the
// installed injector kills, and returns once that goroutine has unwound.
func (f Fixture) orphan(t *testing.T, o *objmodel.Object, v uint64) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		defer func() {
			r := recover()
			if r == nil {
				done <- errors.New("no orphan panic")
				return
			}
			if _, ok := r.(faultinject.OrphanError); !ok {
				panic(r)
			}
			done <- nil
		}()
		done <- f.write(o, 0, v)
	}()
	if err := <-done; err != nil {
		t.Fatalf("orphan goroutine: %v", err)
	}
}

// InjectedCrashCleansUpPerStage: a committer crashing before its commit
// point leaves the record released at its old value; one crashing inside the
// commit window leaves it released with the write applied. Either way the
// runtime keeps working.
func InjectedCrashCleansUpPerStage(t *testing.T, name string) {
	for _, c := range []struct {
		point     faultinject.Point
		committed bool
	}{
		{faultinject.PreAcquire, false},
		{faultinject.PostAcquire, false},
		{faultinject.PreValidate, false},
		{faultinject.PostCommitPoint, true},
		{faultinject.PreRelease, true},
	} {
		t.Run(c.point.String(), func(t *testing.T) {
			f := New(t, name, stmapi.CommonConfig{})
			f.rt.SetInjector(faultinject.New(1, faultinject.Rule{Point: c.point, Action: faultinject.Crash}))
			o := f.NewCell()
			o.StoreSlot(0, 10)
			err := f.crashingWrite(o, 0, 20)
			var ce faultinject.CrashError
			if !errors.As(err, &ce) || ce.Point != c.point {
				t.Fatalf("err = %v, want CrashError at %v", err, c.point)
			}
			if w := o.Rec.Load(); !txrec.IsShared(w) {
				t.Fatalf("record %#x not released after crash", w)
			}
			want := uint64(10)
			if c.committed {
				want = 20
			}
			if got := o.LoadSlot(0); got != want {
				t.Fatalf("slot 0 = %d, want %d", got, want)
			}
			if n := f.rt.ActiveTransactions(); n != 0 {
				t.Fatalf("active transactions = %d, want 0", n)
			}
			f.gateEmpty(t)
			f.rt.SetInjector(nil)
			if err := f.write(o, 1, 1); err != nil {
				t.Fatalf("post-crash transaction: %v", err)
			}
		})
	}
}

// CrashInCommitWindowDoesNotStallOrdering: a committer dying inside the
// Figure 4 window (past the commit point, records held) must complete its
// write-back ticket during cleanup; otherwise every later in-order committer
// waits forever.
func CrashInCommitWindowDoesNotStallOrdering(t *testing.T, name string) {
	f := New(t, name, stmapi.CommonConfig{Quiescence: true})
	f.rt.SetInjector(faultinject.New(1, faultinject.Rule{
		Point: faultinject.PostCommitPoint, Action: faultinject.Crash, Every: 1 << 62,
	}))
	o := f.NewCell()
	if err := f.crashingWrite(o, 0, 1); err == nil {
		t.Fatal("the injected crash did not surface")
	}
	f.rt.SetInjector(nil)
	f.gateEmpty(t)

	f.writeWithin(t, o, 1, 2, "ordering chain stalled behind the crashed committer")
	if got := o.LoadSlot(0); got != 1 {
		t.Fatalf("slot 0 = %d, want 1 (crash was post-commit-point)", got)
	}
}

// ReaperRestoresOrphanedRecord: an orphan that died at PostAcquire holds its
// record with the buffered write never in memory; reclaiming it restores the
// record to Shared with the old value, exactly once.
func ReaperRestoresOrphanedRecord(t *testing.T, name string) {
	f := New(t, name, stmapi.CommonConfig{})
	o := f.NewCell()
	if err := f.write(o, 0, 41); err != nil {
		t.Fatal(err)
	}
	f.rt.SetInjector(faultinject.New(1, faultinject.Rule{Point: faultinject.PostAcquire, Action: faultinject.Orphan, Every: 1}))
	f.orphan(t, o, 999)
	f.rt.SetInjector(nil)

	if w := o.Rec.Load(); !txrec.IsExclusive(w) {
		t.Fatalf("record not left Exclusive by the orphan: %#x", w)
	}
	f.gateEmpty(t) // the dying goroutine's unwind left the gate; only the record is orphaned
	if n := f.rt.ReapDead(); n != 1 {
		t.Fatalf("reaped %d, want 1", n)
	}
	if w := o.Rec.Load(); !txrec.IsShared(w) {
		t.Fatalf("record not restored to Shared: %#x", w)
	}
	if v := o.LoadSlot(0); v != 41 {
		t.Fatalf("buffered write leaked to memory: slot = %d, want 41", v)
	}
	if n := f.rt.Stats().ReaperSteals; n != 1 {
		t.Fatalf("ReaperSteals = %d, want 1", n)
	}
	if n := f.rt.ReapDead(); n != 0 {
		t.Fatalf("second sweep reaped %d, want 0", n)
	}
}

// CommittedOrphanKeepsEffectsAndUnstallsTickets: an orphan that died in the
// Figure 4 window is logically committed with its write-back complete; a
// ReapDead sweep releases its records, keeps its effects, and completes its
// ticket, so a quiescent commit after it does not stall on the ordering chain.
func CommittedOrphanKeepsEffectsAndUnstallsTickets(t *testing.T, name string) {
	f := New(t, name, stmapi.CommonConfig{Quiescence: true})
	o := f.NewCell()
	f.rt.SetInjector(faultinject.New(1, faultinject.Rule{Point: faultinject.PostCommitPoint, Action: faultinject.Orphan, Every: 1}))
	f.orphan(t, o, 7)
	f.rt.SetInjector(nil)
	f.gateEmpty(t)

	if n := f.rt.ReapDead(); n != 1 {
		t.Fatalf("reaped %d, want 1", n)
	}
	if w := o.Rec.Load(); !txrec.IsShared(w) {
		t.Fatalf("record not released: %#x", w)
	}
	if v := o.LoadSlot(0); v != 7 {
		t.Fatalf("committed effect lost: slot = %d, want 7", v)
	}
	f.writeWithin(t, o, 1, 1, "quiescent commit stalled on the orphan's ticket")
}
