package stm

import (
	"sync"
	"testing"

	"repro/internal/conflict"
	"repro/internal/stmapi"
)

// TestClockFastpathUncontended pins the TL2 hot path: with no concurrent
// committers, every commit validates with the single clock compare, every
// writing commit advances the clock exactly once, and the read-set walk
// never runs.
func TestClockFastpathUncontended(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	const n = 100
	for i := 0; i < n; i++ {
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, tx.Read(o, 0)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.rt.Counters.ClockAdvances.Load(); got != n {
		t.Errorf("clock advances = %d, want %d", got, n)
	}
	if got := f.rt.Counters.FastpathValidations.Load(); got != n {
		t.Errorf("fastpath validations = %d, want %d", got, n)
	}
	if got := f.rt.Counters.FallbackWalks.Load(); got != 0 {
		t.Errorf("fallback walks = %d, want 0", got)
	}

	// Read-only commits never advance the clock.
	for i := 0; i < 5; i++ {
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			_ = tx.Read(o, 0)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.rt.Counters.ClockAdvances.Load(); got != n {
		t.Errorf("clock advances after read-only txns = %d, want %d", got, n)
	}
}

// TestClockSnapshotExtends: reading an object whose version is above the
// begin-time snapshot triggers a snapshot extension (one read-set walk); if
// the rest of the read set is still consistent the transaction continues
// rather than restarting.
func TestClockSnapshotExtends(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o1, o2 := f.newCell(), f.newCell()
	runs := 0
	err := f.rt.Atomic(func(tx stmapi.Txn) error {
		runs++
		_ = tx.Read(o1, 0)
		if runs == 1 {
			// An independent transaction commits to o2, pushing its version
			// past the outer transaction's snapshot.
			if err := f.rt.Atomic(func(in stmapi.Txn) error {
				in.Write(o2, 0, 7)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		got := tx.Read(o2, 0)
		tx.Write(o1, 1, got)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Errorf("runs = %d, want 1 (extension should not restart)", runs)
	}
	if got := o1.LoadSlot(1); got != 7 {
		t.Errorf("o1 slot1 = %d, want 7", got)
	}
	if got := f.rt.Counters.FallbackWalks.Load(); got != 1 {
		t.Errorf("fallback walks = %d, want exactly 1 (the extension)", got)
	}
}

// TestClockSnapshotExtensionFails: if the read set already went stale, the
// extension's walk fails and the transaction restarts with a consistent
// snapshot.
func TestClockSnapshotExtensionFails(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o1, o2 := f.newCell(), f.newCell()
	runs := 0
	err := f.rt.Atomic(func(tx stmapi.Txn) error {
		runs++
		v1 := tx.Read(o1, 0)
		if runs == 1 {
			// The independent transaction overwrites o1 (already in the outer
			// read set) as well as o2.
			if err := f.rt.Atomic(func(in stmapi.Txn) error {
				in.Write(o1, 0, 5)
				in.Write(o2, 0, 6)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		v2 := tx.Read(o2, 0)
		tx.Write(o1, 1, v1+v2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Errorf("runs = %d, want 2 (stale read set must restart)", runs)
	}
	if got := o1.LoadSlot(1); got != 11 {
		t.Errorf("o1 slot1 = %d, want 11 (5+6 from the consistent re-run)", got)
	}
	if got := f.rt.Counters.Aborts.Load(); got != 1 {
		t.Errorf("aborts = %d, want 1", got)
	}
}

// staleObsPolicy is a contention handler that also records validation-abort
// notifications (conflict.StaleObserver).
type staleObsPolicy struct {
	conflict.Backoff
	mu    sync.Mutex
	infos []conflict.Info
}

func (p *staleObsPolicy) ObserveValidationAbort(in conflict.Info) {
	p.mu.Lock()
	p.infos = append(p.infos, in)
	p.mu.Unlock()
}

// TestStaleObserverNotified: a commit-time validation failure reports the
// stale object to a policy implementing StaleObserver, with Kind
// TxnValidation and the object's handle.
func TestStaleObserverNotified(t *testing.T) {
	pol := &staleObsPolicy{}
	f := newFixture(t, stmapi.CommonConfig{Handler: pol})
	o1, o2 := f.newCell(), f.newCell()
	runs := 0
	err := f.rt.Atomic(func(tx stmapi.Txn) error {
		runs++
		_ = tx.Read(o1, 0)
		if runs == 1 {
			// NT barrier shape: the read-set entry goes stale after the read,
			// with no further contact before commit.
			if _, ok := o1.Rec.AcquireAnon(); !ok {
				t.Fatal("acquire failed")
			}
			o1.StoreSlot(0, 10)
			f.heap.Clock().Tick()
			o1.Rec.ReleaseAnon()
		}
		tx.Write(o2, 0, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("runs = %d, want 2", runs)
	}
	pol.mu.Lock()
	defer pol.mu.Unlock()
	if len(pol.infos) != 1 {
		t.Fatalf("observer saw %d validation aborts, want 1", len(pol.infos))
	}
	in := pol.infos[0]
	if in.Kind != conflict.TxnValidation {
		t.Errorf("Kind = %v, want %v", in.Kind, conflict.TxnValidation)
	}
	if in.Obj != uint64(o1.Ref()) {
		t.Errorf("Obj = %d, want %d (the stale object)", in.Obj, o1.Ref())
	}
}
