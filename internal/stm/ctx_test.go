package stm

// Cancellation-edge tests for AtomicCtx: entry, mid-body, conflict waits,
// retry waits and post-commit quiescence.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/stmapi"
	"repro/internal/txn/txntest"
)

func TestAtomicCtxPreCancelledSkipsBody(t *testing.T) { txntest.CtxPreCancelledSkipsBody(t, "eager") }

func TestAtomicCtxNilBehavesLikeAtomic(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	if err := f.rt.AtomicCtx(nil, func(tx stmapi.Txn) error {
		tx.Write(o, 0, 42)
		return nil
	}); err != nil {
		t.Fatalf("AtomicCtx(nil): %v", err)
	}
	if got := o.LoadSlot(0); got != 42 {
		t.Fatalf("slot 0 = %d, want 42", got)
	}
}

func TestAtomicCtxCancelMidBodyRollsBack(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	ctx, cancel := context.WithCancel(context.Background())
	err := f.rt.AtomicCtx(ctx, func(tx stmapi.Txn) error {
		tx.Write(o, 0, 99)
		cancel()
		// The next cancellation point notices: force one by restarting (the
		// re-execution loop checks ctx before every attempt).
		tx.Restart()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := o.LoadSlot(0); got != 0 {
		t.Fatalf("slot 0 = %d, want 0 (write rolled back)", got)
	}
	if n := f.rt.ActiveTransactions(); n != 0 {
		t.Fatalf("active transactions = %d, want 0", n)
	}
}

func TestAtomicCtxDeadlineInConflictWait(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	release := make(chan struct{})
	acquired := make(chan struct{})
	go func() {
		_ = f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 1, 7)
			close(acquired)
			<-release
			return nil
		})
	}()
	<-acquired
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := f.rt.AtomicCtx(ctx, func(tx stmapi.Txn) error {
		tx.Write(o, 0, 1) // blocks in conflictWait on the held record
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("cancellation took %v; conflict wait did not observe ctx", time.Since(start))
	}
	if got := o.LoadSlot(0); got != 0 {
		t.Fatalf("slot 0 = %d, want 0", got)
	}
	if n := f.rt.ActiveTransactions(); n != 1 { // only the parked holder
		t.Fatalf("active transactions = %d, want 1", n)
	}
}

func TestAtomicCtxDeadlineInRetryWait(t *testing.T) { txntest.CtxDeadlineInRetryWait(t, "eager") }

func TestAtomicCtxCancelDuringQuiescence(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{Quiescence: true})
	o := f.newCell()

	// Park a transaction that began before our commit and stays Active, so
	// the committer's quiescence wait cannot finish on its own. It touches a
	// disjoint object: quiescence waits on every overlapping-in-time
	// transaction regardless of data.
	other := f.newCell()
	inBody := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_ = f.rt.Atomic(func(tx stmapi.Txn) error {
			_ = tx.Read(other, 1)
			close(inBody)
			<-release
			return nil
		})
	}()
	<-inBody
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := f.rt.AtomicCtx(ctx, func(tx stmapi.Txn) error {
		tx.Write(o, 0, 5)
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// Past the commit point the effects are durable even though the
	// privatization wait was abandoned.
	if got := o.LoadSlot(0); got != 5 {
		t.Fatalf("slot 0 = %d, want 5 (commit is durable)", got)
	}
	if s := f.rt.Stats(); s.Commits != 1 {
		t.Fatalf("commits = %d, want 1", s.Commits)
	}
}

func TestAtomicCtxAPIAdapter(t *testing.T) { txntest.CtxAPIAdapter(t, "eager") }
