package txn_test

// The cancellation edges of AtomicCtx on every runtime: entry, mid-body,
// conflict waits and retry waits. The quiescence wait's are
// TestQuiescenceIsAGracePeriod's.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/stmapi"
)

// TestAtomicCtxPreCancelledSkipsBody: an already-cancelled context returns
// its error without beginning an attempt.
func TestAtomicCtxPreCancelledSkipsBody(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ran := false
		err := f.rt.AtomicCtx(ctx, func(stmapi.Txn) error {
			ran = true
			return nil
		})
		if !errors.Is(err, context.Canceled) || ran {
			t.Fatalf("err = %v, body ran: %v; want context.Canceled without running it", err, ran)
		}
		if s := f.rt.Stats(); s.Starts != 0 {
			t.Fatalf("starts = %d, want 0 (no attempt should begin)", s.Starts)
		}
	})
}

// TestAtomicCtxNilBehavesLikeAtomic: a nil context is no context.
func TestAtomicCtxNilBehavesLikeAtomic(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		o := f.cell()
		if err := f.rt.AtomicCtx(nil, func(tx stmapi.Txn) error {
			tx.Write(o, 0, 42)
			return nil
		}); err != nil {
			t.Fatalf("AtomicCtx(nil): %v", err)
		}
		if got := o.LoadSlot(0); got != 42 {
			t.Fatalf("slot 0 = %d, want 42", got)
		}
	})
}

// TestAtomicCtxCancelMidBodyRollsBack: a context cancelled mid-body ends the
// attempt at the next cancellation point, here the re-execution loop's
// check before the next attempt, with the attempt's write gone. Eager wrote
// it in place and replays its undo log; lazy and mvstm never wrote memory.
func TestAtomicCtxCancelMidBodyRollsBack(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		o := f.cell()
		inPlace := uint64(0)
		if name == "eager" {
			inPlace = 99
		}
		ctx, cancel := context.WithCancel(context.Background())
		err := f.rt.AtomicCtx(ctx, func(tx stmapi.Txn) error {
			tx.Write(o, 0, 99)
			if got := o.LoadSlot(0); got != inPlace {
				t.Errorf("slot 0 = %d in the body, want %d", got, inPlace)
			}
			cancel()
			tx.Restart()
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if got := o.LoadSlot(0); got != 0 {
			t.Fatalf("slot 0 = %d, want 0 (the cancelled attempt's write must not survive)", got)
		}
		if n := f.rt.ActiveTransactions(); n != 0 {
			t.Fatalf("active transactions = %d, want 0", n)
		}
	})
}

// TestAtomicCtxDeadlineInConflictWait: a writer waiting out a record another
// transaction holds ends through its context's deadline, promptly and with
// nothing written. Eager holds a record from its write in the body on, a
// deferred-update runtime (lazy, mvstm) only from its commit, so there the
// holder is parked in its commit window, past its commit point and no
// longer Active.
func TestAtomicCtxDeadlineInConflictWait(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		o := f.cell()
		window := name != "eager"
		release, parked := park(f, o, window)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		start := time.Now()
		err := f.rt.AtomicCtx(ctx, func(tx stmapi.Txn) error {
			tx.Write(o, 1, 2) // waits on the held record
			return nil
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		if d := time.Since(start); d > 3*time.Second {
			t.Fatalf("cancellation took %v; the conflict wait did not observe ctx", d)
		}
		if got := o.LoadSlot(1); got != 0 {
			t.Fatalf("slot 1 = %d, want 0", got)
		}
		active := 1
		if window {
			active = 0
		}
		if n := f.rt.ActiveTransactions(); n != active {
			t.Fatalf("active transactions = %d, want %d (the holder's)", n, active)
		}
		release()
		within(t, parked, "the holder did not finish")
	})
}

// TestAtomicCtxDeadlineInRetryWait: a user Retry that nothing will ever wake
// ends through the context's deadline.
func TestAtomicCtxDeadlineInRetryWait(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		o := f.cell()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		err := f.rt.AtomicCtx(ctx, func(tx stmapi.Txn) error {
			_ = tx.Read(o, 0)
			tx.Retry() // nothing ever writes o: the wait must end via ctx
			return nil
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		if n := f.rt.ActiveTransactions(); n != 0 {
			t.Fatalf("active transactions = %d, want 0", n)
		}
	})
}

// TestAtomicCtxAPIAdapter: a live context commits normally, and a context
// cancelled mid-body discards the attempt's writes at the next access, which
// is a cancellation point.
func TestAtomicCtxAPIAdapter(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		o := f.cell()
		ctx, cancel := context.WithCancel(context.Background())
		if err := f.rt.AtomicCtx(ctx, func(tx stmapi.Txn) error {
			tx.Write(o, 0, 11)
			return nil
		}); err != nil {
			t.Fatalf("AtomicCtx: %v", err)
		}
		err := f.rt.AtomicCtx(ctx, func(tx stmapi.Txn) error {
			tx.Write(o, 0, 12)
			cancel()
			_ = tx.Read(o, 1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if got := o.LoadSlot(0); got != 11 {
			t.Fatalf("slot 0 = %d, want 11 (the cancelled attempt's write must not survive)", got)
		}
	})
}
