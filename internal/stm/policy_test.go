package stm

// Contention policies against eager's encounter-time ownership, which the
// deferred-update runtimes do not have (their conflicts are at commit): a
// deterministic deadlock of two writers holding each other's next record
// from their bodies, which the default backoff can never resolve while the
// arbitrating policies commit both, and an older writer dooming a body that
// holds its record. What every runtime promises under every policy is
// internal/txn's TestPoliciesPreserveInvariantsUnderContention.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/conflict"
	"repro/internal/stmapi"
)

// Encounter-time locking: each writer holds a record from its body on.
func TestPoliciesResolveDeadlockWhereBackoffStarves(t *testing.T) {
	t.Run("backoff", func(t *testing.T) {
		e1, e2, _ := runOpposedWriters(t, "backoff", 500*time.Millisecond)
		// Backoff has no arbitration: the cross-held records deadlock until
		// the context expires. (The moment one writer gives up and releases,
		// the survivor commits — so exactly one starves, rescued only by the
		// other's cancellation.) This is the starvation the policies fix.
		if !errors.Is(e1, context.DeadlineExceeded) && !errors.Is(e2, context.DeadlineExceeded) {
			t.Fatalf("backoff should starve at least one writer; errs = %v, %v", e1, e2)
		}
		t.Logf("backoff starved as expected: errs = %v, %v", e1, e2)
	})
	for _, policy := range []string{"timestamp", "karma"} {
		t.Run(policy, func(t *testing.T) {
			e1, e2, s := runOpposedWriters(t, policy, 30*time.Second)
			if e1 != nil || e2 != nil {
				t.Fatalf("%s must commit every transaction; errs = %v, %v", policy, e1, e2)
			}
			if s.SelfAborts+s.DoomsIssued == 0 {
				t.Fatalf("%s resolved the deadlock without arbitrating (self-aborts=%d dooms=%d)",
					policy, s.SelfAborts, s.DoomsIssued)
			}
			t.Logf("%s: self-aborts=%d dooms=%d", policy, s.SelfAborts, s.DoomsIssued)
		})
	}
}

// runOpposedWriters builds the deterministic deadlock: T1 (older) acquires A
// and then wants B; T2 (younger, begun strictly after T1) acquires B and then
// wants A. Channel handshakes guarantee the cross-hold forms before either
// blocks. SelfAbortAfter is effectively disabled so the built-in restart
// threshold cannot rescue the backoff run.
func runOpposedWriters(t *testing.T, policy string, deadline time.Duration) (e1, e2 error, s stmapi.StatsSnapshot) {
	t.Helper()
	pol, err := conflict.ByName(policy)
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, stmapi.CommonConfig{
		Handler:        pol,
		SelfAbortAfter: 1 << 30,
	})
	a, b := f.newCell(), f.newCell()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	t1Began := make(chan struct{})
	t1HoldsA := make(chan struct{})
	t2HoldsB := make(chan struct{})
	var onceBegan, onceA, onceB sync.Once
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		e1 = f.rt.AtomicCtx(ctx, func(tx stmapi.Txn) error {
			onceBegan.Do(func() { close(t1Began) })
			tx.Write(a, 0, 1)
			onceA.Do(func() { close(t1HoldsA) })
			<-t2HoldsB
			tx.Write(b, 0, 1)
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		<-t1Began // T2 begins after T1: strictly younger under age policies
		e2 = f.rt.AtomicCtx(ctx, func(tx stmapi.Txn) error {
			tx.Write(b, 0, 2)
			onceB.Do(func() { close(t2HoldsB) })
			<-t1HoldsA
			tx.Write(a, 0, 2)
			return nil
		})
	}()
	wg.Wait()

	if e1 == nil && e2 == nil {
		// Both committed: serializability demands the final state is one
		// writer's complete update, never an interleaving.
		va, vb := a.LoadSlot(0), b.LoadSlot(0)
		if va != vb || va == 0 {
			t.Fatalf("final state a=%d b=%d is not a serial outcome", va, vb)
		}
	}
	return e1, e2, f.rt.Stats()
}

// Encounter-time locking: the victim holds the record from its body on.
func TestDoomedVictimRestartsAndBothCommit(t *testing.T) {
	// Direct abort-other wiring check: an older transaction dooms the owner
	// of the record it needs; the victim notices at its next access, aborts
	// (releasing the record), and both eventually commit.
	pol, err := conflict.ByName("timestamp")
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, stmapi.CommonConfig{Handler: pol})
	o := f.newCell()

	elderBegan := make(chan struct{})
	youngHolds := make(chan struct{})
	var onceBegan, onceHolds sync.Once
	victimAttempts := 0
	var wg sync.WaitGroup
	wg.Add(2)
	var elderErr, youngErr error
	go func() {
		defer wg.Done()
		elderErr = f.rt.Atomic(func(tx stmapi.Txn) error {
			onceBegan.Do(func() { close(elderBegan) })
			<-youngHolds
			tx.Write(o, 0, 1) // conflicts with the younger owner: dooms it
			return nil
		})
	}()
	go func() {
		defer wg.Done()
		<-elderBegan
		youngErr = f.rt.Atomic(func(tx stmapi.Txn) error {
			victimAttempts++
			tx.Write(o, 1, 2)
			onceHolds.Do(func() { close(youngHolds) })
			if tx.Attempt() == 0 {
				// Poll until the doom lands: each access is a doom check.
				for i := 0; i < 10_000; i++ {
					time.Sleep(100 * time.Microsecond)
					_ = tx.Read(o, 1)
				}
			}
			return nil // attempt 0 reaches this only if the doom never arrived
		})
	}()
	wg.Wait()

	if elderErr != nil || youngErr != nil {
		t.Fatalf("errs: elder=%v young=%v", elderErr, youngErr)
	}
	if victimAttempts < 2 {
		t.Fatalf("victim ran %d attempt(s); expected a doom-induced restart", victimAttempts)
	}
	s := f.rt.Stats()
	if s.DoomsIssued == 0 {
		t.Fatalf("no dooms recorded")
	}
	if got := o.LoadSlot(0); got != 1 {
		t.Fatalf("slot 0 = %d, want 1", got)
	}
	if got := o.LoadSlot(1); got != 2 {
		t.Fatalf("slot 1 = %d, want 2", got)
	}
}
