package txntest

// Orphan checks of the commit-time locking protocol the deferred-update
// runtimes share (txn.Deferred): a ReapDead sweep restores or completes what
// an orphan held, and an orphan inside the commit window never stalls a
// quiescing committer once reaped. One check name and its message keep the
// vocabulary of the write-back ticket chain the kernel's quiescence grace
// period replaced: the "tickets" they speak of are that grace period.
// Written against stmapi.Runtime alone; a runtime with a commit gate must
// also come out of each scenario with the gate empty.

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
// is still counted inside it: an orphan in the commit window must not leak
// the gate, or every later irrevocable switch and live checkpoint waits
// forever.
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
