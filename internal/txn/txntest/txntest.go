// Package txntest holds the behavioural checks every kernel-based runtime
// must pass, written once against stmapi. The behaviours belong to the
// transaction kernel (cancellation, statistics flushing, policy wiring), so
// they are the same for every runtime; each runtime package's tests call
// them with its own registry name, which keeps the per-runtime test names
// while the check itself has one home. A runtime is constructed through
// stmapi.New, so the calling test package must link the runtime in.
package txntest

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/conflict"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
)

// Fixture is a runtime on a fresh heap with a two-slot cell class.
type Fixture struct {
	rt  stmapi.Runtime
	cls *objmodel.Class
}

// New constructs the runtime registered under name, with cfg, on a fresh
// heap.
func New(t *testing.T, name string, cfg stmapi.CommonConfig) Fixture {
	t.Helper()
	heap := objmodel.NewHeap()
	rt, err := stmapi.New(name, heap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cls := heap.MustDefineClass(objmodel.ClassSpec{Name: "Cell", Fields: []objmodel.Field{{Name: "f"}, {Name: "g"}}})
	return Fixture{rt, cls}
}

// Runtime returns the fixture's runtime.
func (f Fixture) Runtime() stmapi.Runtime { return f.rt }

// NewCell allocates a cell on the fixture's heap.
func (f Fixture) NewCell() *objmodel.Object { return f.rt.Heap().New(f.cls) }

// load reads o's slot 0 in a transaction of its own.
func (f Fixture) load(t *testing.T, o *objmodel.Object) (v uint64) {
	t.Helper()
	if err := f.rt.Atomic(func(tx stmapi.Txn) error {
		v = tx.Read(o, 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return v
}

// CtxPreCancelledSkipsBody: an already-cancelled context returns its error
// without beginning an attempt.
func CtxPreCancelledSkipsBody(t *testing.T, name string) {
	f := New(t, name, stmapi.CommonConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := f.rt.AtomicCtx(ctx, func(stmapi.Txn) error {
		ran = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Fatalf("body executed under an already-cancelled context")
	}
	if s := f.rt.Stats(); s.Starts != 0 {
		t.Fatalf("starts = %d, want 0 (no attempt should begin)", s.Starts)
	}
}

// CtxDeadlineInRetryWait: a user Retry that nothing will ever wake ends
// through the context's deadline.
func CtxDeadlineInRetryWait(t *testing.T, name string) {
	f := New(t, name, stmapi.CommonConfig{})
	o := f.NewCell()
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
}

// CtxAPIAdapter: through the stmapi.Runtime interface, a live context
// commits normally, and a context cancelled mid-body discards the attempt's
// writes.
func CtxAPIAdapter(t *testing.T, name string) {
	f := New(t, name, stmapi.CommonConfig{})
	o := f.NewCell()
	ctx, cancel := context.WithCancel(context.Background())
	if err := f.rt.AtomicCtx(ctx, func(tx stmapi.Txn) error {
		tx.Write(o, 0, 11)
		return nil
	}); err != nil {
		t.Fatalf("AtomicCtx: %v", err)
	}
	if got := f.load(t, o); got != 11 {
		t.Fatalf("slot 0 = %d, want 11", got)
	}
	err := f.rt.AtomicCtx(ctx, func(tx stmapi.Txn) error {
		tx.Write(o, 0, 12)
		cancel()
		_ = tx.Read(o, 1) // every access is a cancellation point
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := f.load(t, o); got != 11 {
		t.Fatalf("slot 0 = %d, want 11 (the cancelled attempt's write must not survive)", got)
	}
}

// StatsFlushParallel checks commit/abort accounting with contended
// increments and deliberate user aborts across goroutines: every begun
// attempt is accounted as exactly one commit or abort, and access counts
// cover at least the committed work.
func StatsFlushParallel(t *testing.T, name string) {
	f := New(t, name, stmapi.CommonConfig{})
	o := f.NewCell()
	errUser := errors.New("user abort")
	const goroutines = 8
	const iters = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				err := f.rt.Atomic(func(tx stmapi.Txn) error {
					tx.Write(o, 0, tx.Read(o, 0)+1)
					if i%4 == 3 {
						return errUser
					}
					return nil
				})
				if (i%4 == 3) != (err == errUser) {
					t.Errorf("iteration %d: err = %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
	s := f.rt.Stats()
	got := f.load(t, o) // after the snapshot: it is a commit itself
	const total = goroutines * iters
	const wantCommits = total * 3 / 4
	if s.Commits != wantCommits {
		t.Errorf("commits = %d, want %d", s.Commits, wantCommits)
	}
	if s.Starts != s.Commits+s.Aborts {
		t.Errorf("starts (%d) != commits (%d) + aborts (%d)", s.Starts, s.Commits, s.Aborts)
	}
	if s.Aborts < total/4 {
		t.Errorf("aborts = %d, want >= %d (user aborts alone)", s.Aborts, total/4)
	}
	if s.TxnWrites < total || s.TxnReads < total {
		t.Errorf("reads/writes = %d/%d, want >= %d each", s.TxnReads, s.TxnWrites, total)
	}
	if got != wantCommits {
		t.Errorf("cell = %d, want %d (only committed increments)", got, wantCommits)
	}
}

// PoliciesPreserveInvariants runs a heavily contended transfer workload
// under every registered contention policy: whatever the policy decides
// (wait, self-abort, doom), total balance is conserved and work commits.
func PoliciesPreserveInvariants(t *testing.T, name string) {
	for _, policy := range conflict.PolicyNames {
		t.Run(policy, func(t *testing.T) {
			pol, err := conflict.ByName(policy)
			if err != nil {
				t.Fatal(err)
			}
			f := New(t, name, stmapi.CommonConfig{Handler: pol})
			const accounts, balance = 4, 1000 // few accounts: heavy contention
			objs := make([]*objmodel.Object, accounts)
			for i := range objs {
				objs[i] = f.NewCell()
				objs[i].StoreSlot(0, balance)
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := uint64(g+1)*2862933555777941757 + 3037000493
					for i := 0; i < 400; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						from, to := objs[rng%accounts], objs[(rng>>8)%accounts]
						if from == to {
							continue
						}
						if err := f.rt.Atomic(func(tx stmapi.Txn) error {
							a, b := tx.Read(from, 0), tx.Read(to, 0)
							tx.Write(from, 0, a-1)
							tx.Write(to, 0, b+1)
							return nil
						}); err != nil {
							t.Errorf("transfer: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			var sum uint64
			for _, o := range objs {
				sum += o.LoadSlot(0)
			}
			if sum != accounts*balance {
				t.Fatalf("total balance %d, want %d", sum, accounts*balance)
			}
			s := f.rt.Stats()
			if s.Commits == 0 {
				t.Fatalf("no commits recorded")
			}
			t.Logf("%s: starts=%d commits=%d aborts=%d self-aborts=%d dooms=%d",
				policy, s.Starts, s.Commits, s.Aborts, s.SelfAborts, s.DoomsIssued)
		})
	}
}
