package stm

import (
	"testing"

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
