package lazystm

// Cancellation-edge tests for the lazy runtime's AtomicCtx: entry,
// mid-body, retry waits and the post-commit quiescence wait.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stmapi"
	"repro/internal/trace"
	"repro/internal/txn/txntest"
)

func TestAtomicCtxPreCancelledSkipsBody(t *testing.T) { txntest.CtxPreCancelledSkipsBody(t, "lazy") }

func TestAtomicCtxCancelMidBodyDiscardsBuffer(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.heap.New(f.cls)
	ctx, cancel := context.WithCancel(context.Background())
	err := f.rt.AtomicCtx(ctx, func(tx stmapi.Txn) error {
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
	f := newFixture(t, stmapi.CommonConfig{Quiescence: true})
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
		firstDone <- f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o1, 0, 1)
			return nil
		})
	}()
	<-parked

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := f.rt.AtomicCtx(ctx, func(tx stmapi.Txn) error {
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
		done <- f.rt.Atomic(func(tx stmapi.Txn) error {
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

func TestAtomicCtxAPIAdapter(t *testing.T) { txntest.CtxAPIAdapter(t, "lazy") }
