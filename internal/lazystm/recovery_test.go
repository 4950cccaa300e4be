package lazystm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/txn/txntest"
)

func newRecoveryRuntime(t *testing.T, cfg stmapi.CommonConfig) (*Runtime, *objmodel.Object) {
	t.Helper()
	h := objmodel.NewHeap()
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "Acct",
		Fields: []objmodel.Field{{Name: "bal"}, {Name: "aux"}},
	})
	rt := New(h, cfg)
	return rt, h.New(cls)
}

// orphanOnce runs body in its own goroutine and swallows the OrphanError the
// injected death raises, returning once the goroutine has fully unwound.
func orphanOnce(t *testing.T, rt *Runtime, body func(tx stmapi.Txn) error) {
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
		done <- rt.Atomic(body)
	}()
	if err := <-done; err != nil {
		t.Fatalf("orphan goroutine: %v", err)
	}
}

// The reaper checks belong to the kernel's commit-time protocol; their
// bodies are in txntest.
func TestReaperRestoresOrphanedRecord(t *testing.T) {
	txntest.ReaperRestoresOrphanedRecord(t, "lazy")
}
func TestCommittedOrphanKeepsEffectsAndUnstallsTickets(t *testing.T) {
	txntest.CommittedOrphanKeepsEffectsAndUnstallsTickets(t, "lazy")
}

func TestWaiterStealsInlineWithoutReaper(t *testing.T) {
	rt, o := newRecoveryRuntime(t, stmapi.CommonConfig{})
	in := faultinject.New(1, faultinject.Rule{Point: faultinject.PreValidate, Action: faultinject.Orphan, Every: 1})
	rt.SetInjector(in)
	orphanOnce(t, rt, func(tx stmapi.Txn) error {
		tx.Write(o, 0, 999)
		return nil
	})
	rt.SetInjector(nil)

	// No reaper: the next committer must find the dead owner and steal inline.
	done := make(chan error, 1)
	go func() {
		done <- rt.Atomic(func(tx stmapi.Txn) error { tx.Write(o, 0, 5); return nil })
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("writer after orphan: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer blocked on orphaned record: inline steal did not happen")
	}
	if v := o.LoadSlot(0); v != 5 {
		t.Fatalf("slot = %d, want 5", v)
	}
}

func TestAtomicIrrevocableCommitsAndReleasesToken(t *testing.T) {
	rt, o := newRecoveryRuntime(t, stmapi.CommonConfig{})
	rt.Atomic(func(tx stmapi.Txn) error { tx.Write(o, 0, 1); return nil })

	err := rt.AtomicIrrevocable(func(tx stmapi.Txn) error {
		v := tx.Read(o, 0)
		if !tx.IsIrrevocable() {
			t.Error("body not irrevocable inside AtomicIrrevocable")
		}
		tx.Write(o, 0, v+1)
		return nil
	})
	if err != nil {
		t.Fatalf("AtomicIrrevocable: %v", err)
	}
	if v := o.LoadSlot(0); v != 2 {
		t.Fatalf("slot = %d, want 2", v)
	}
	if tok := rt.IrrevocableHolder(); tok != 0 {
		t.Fatalf("token not released: %d", tok)
	}
	if n := rt.Counters.IrrevocableTxns.Load(); n != 1 {
		t.Fatalf("IrrevocableTxns = %d, want 1", n)
	}
	if ns := rt.Counters.IrrevocableNs.Load(); ns <= 0 {
		t.Fatalf("IrrevocableNs = %d, want > 0", ns)
	}
}

func TestBecomeIrrevocableMidBodySurvivesDoom(t *testing.T) {
	rt, o := newRecoveryRuntime(t, stmapi.CommonConfig{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Background writers hammer the object, trying to invalidate the reader.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rt.Atomic(func(tx stmapi.Txn) error {
					tx.Write(o, 1, tx.Read(o, 1)+1)
					return nil
				})
			}
		}()
	}
	err := rt.Atomic(func(tx stmapi.Txn) error {
		tx.BecomeIrrevocable()
		// Past the switch nothing may abort us: a read of the contended
		// object acquires it pessimistically and must succeed.
		v := tx.Read(o, 1)
		time.Sleep(time.Millisecond)
		tx.Write(o, 0, v)
		return nil
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("irrevocable txn returned %v", err)
	}
	if tok := rt.IrrevocableHolder(); tok != 0 {
		t.Fatalf("token not released: %d", tok)
	}
}

func TestEscalateAfterConsecutiveAborts(t *testing.T) {
	rt, o := newRecoveryRuntime(t, stmapi.CommonConfig{EscalateAfter: 3})
	// Abort every attempt at validation; the fourth attempt escalates to
	// irrevocable, which ignores the Abort injection and commits.
	in := faultinject.New(1, faultinject.Rule{Point: faultinject.PreValidate, Action: faultinject.Abort, Every: 1})
	rt.SetInjector(in)
	sawIrrevocable := false
	err := rt.Atomic(func(tx stmapi.Txn) error {
		sawIrrevocable = tx.IsIrrevocable()
		tx.Write(o, 0, uint64(tx.Attempt()))
		return nil
	})
	rt.SetInjector(nil)
	if err != nil {
		t.Fatalf("Atomic: %v", err)
	}
	if !sawIrrevocable {
		t.Fatal("final attempt did not run irrevocably")
	}
	if n := rt.Counters.Escalations.Load(); n != 1 {
		t.Fatalf("Escalations = %d, want 1", n)
	}
	if v := o.LoadSlot(0); v != 3 {
		t.Fatalf("slot = %d, want 3 (attempt index at escalation)", v)
	}
}
