package lazystm

// Cancellation-edge tests for the lazy runtime's AtomicCtx: entry,
// mid-body, retry waits, the post-commit quiescence wait, and flattened
// nesting.

import (
	"context"
	"errors"
	"repro/internal/txn/txntest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stmapi"
	"repro/internal/trace"
)

func TestAtomicCtxPreCancelledSkipsBody(t *testing.T) { txntest.CtxPreCancelledSkipsBody(t, "lazy") }

func TestAtomicCtxCancelMidBodyDiscardsBuffer(t *testing.T) {
	f := newFixture(t, Config{})
	o := f.heap.New(f.cls)
	ctx, cancel := context.WithCancel(context.Background())
	err := f.rt.AtomicCtx(ctx, nil, func(tx *Txn) error {
		tx.Write(o, 0, 99)
		cancel()
		_ = tx.Read(o, 0) // accesses are cancellation points
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := o.LoadSlot(0); got != 0 {
		t.Fatalf("slot 0 = %d, want 0 (buffer discarded, nothing written back)", got)
	}
	if n := f.rt.ActiveTransactions(); n != 0 {
		t.Fatalf("active transactions = %d, want 0", n)
	}
}

func TestAtomicCtxDeadlineInRetryWait(t *testing.T) { txntest.CtxDeadlineInRetryWait(t, "lazy") }

func TestAtomicCtxCancelDuringOrderingWait(t *testing.T) {
	// Park the first committer inside the Figure 4 commit window (after the
	// commit point, before its write-back), so a later committer's quiescence
	// wait cannot finish on its own.
	parked := make(chan struct{})
	release := make(chan struct{})
	var once atomic.Bool
	f := newFixture(t, Config{CommonConfig: stmapi.CommonConfig{Quiescence: true}})
	f.traceSink(func(ev trace.Event) {
		if ev.Kind == trace.EvCommitPoint && once.CompareAndSwap(false, true) {
			close(parked)
			<-release
		}
	})
	o1 := f.heap.New(f.cls)
	o2 := f.heap.New(f.cls)

	firstDone := make(chan error, 1)
	go func() {
		firstDone <- f.rt.Atomic(nil, func(tx *Txn) error {
			tx.Write(o1, 0, 1)
			return nil
		})
	}()
	<-parked

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := f.rt.AtomicCtx(ctx, nil, func(tx *Txn) error {
		tx.Write(o2, 0, 2)
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// Write-back precedes the quiescence wait: the effects are durable even
	// though the wait was abandoned.
	if got := o2.LoadSlot(0); got != 2 {
		t.Fatalf("o2 slot 0 = %d, want 2 (commit is durable)", got)
	}

	// The abandoned wait must not stall anyone after it: release the parked
	// committer and verify a third transaction quiesces normally.
	close(release)
	if err := <-firstDone; err != nil {
		t.Fatalf("parked committer: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		done <- f.rt.Atomic(nil, func(tx *Txn) error {
			tx.Write(o1, 1, 3)
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("post-cancel transaction: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("ordering chain stalled after an abandoned wait")
	}
}

func TestNestedAtomicCtxFlattened(t *testing.T) {
	f := newFixture(t, Config{})
	o := f.heap.New(f.cls)
	var nestedErr error
	err := f.rt.Atomic(nil, func(tx *Txn) error {
		tx.Write(o, 0, 1)
		ctx, cancel := context.WithCancel(context.Background())
		nestedErr = f.rt.AtomicCtx(ctx, tx, func(tx *Txn) error {
			tx.Write(o, 1, 2)
			cancel()
			_ = tx.Read(o, 1)
			return nil
		})
		tx.Write(o, 2, 3)
		return nil
	})
	if err != nil {
		t.Fatalf("outer Atomic: %v", err)
	}
	if !errors.Is(nestedErr, context.Canceled) {
		t.Fatalf("nested err = %v, want context.Canceled", nestedErr)
	}
	// Flattened nesting: the nested block's buffered write is not rolled
	// back; the enclosing body chose to continue, so everything commits.
	if got := o.LoadSlot(0); got != 1 {
		t.Fatalf("slot 0 = %d, want 1", got)
	}
	if got := o.LoadSlot(1); got != 2 {
		t.Fatalf("slot 1 = %d, want 2 (flattened: nested write survives)", got)
	}
	if got := o.LoadSlot(2); got != 3 {
		t.Fatalf("slot 2 = %d, want 3", got)
	}
}

func TestNestedAtomicCtxPreCancelled(t *testing.T) {
	f := newFixture(t, Config{})
	o := f.heap.New(f.cls)
	err := f.rt.Atomic(nil, func(tx *Txn) error {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ran := false
		nerr := f.rt.AtomicCtx(ctx, tx, func(tx *Txn) error {
			ran = true
			return nil
		})
		if !errors.Is(nerr, context.Canceled) || ran {
			t.Errorf("nested pre-cancelled: err=%v ran=%v", nerr, ran)
		}
		tx.Write(o, 0, 1)
		return nil
	})
	if err != nil {
		t.Fatalf("outer Atomic: %v", err)
	}
	if got := o.LoadSlot(0); got != 1 {
		t.Fatalf("slot 0 = %d, want 1", got)
	}
}

func TestAtomicCtxAPIAdapter(t *testing.T) { txntest.CtxAPIAdapter(t, "lazy") }
