package stm

import (
	"testing"

	"repro/internal/stmapi"
)

// granTrial runs the GLU abort-path shape on a fresh runtime at granularity
// g: a transaction writes slot0 (at span granularity this logs undo for
// slot1 too), a simulated non-transactional store hits slot1 while the
// transaction owns the record, and the transaction restarts. Returns slot1's
// final value: at span granularity the rollback replays the stale span and
// clobbers the NT store; at slot granularity the NT store survives.
func granTrial(t *testing.T, g int) uint64 {
	t.Helper()
	f := newFixture(t, stmapi.CommonConfig{Granularity: g})
	o := f.newCell()
	if err := f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, 1, 7)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	runs := 0
	if err := f.rt.Atomic(func(tx stmapi.Txn) error {
		runs++
		tx.Write(o, 0, 1)
		if runs == 1 {
			o.StoreSlot(1, 99)
			tx.Restart()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("runs = %d, want 2", runs)
	}
	return o.LoadSlot(1)
}

// TestSpanPoisoningAndPromotion pins both sides of the Section 2.4
// span-poisoning anomaly on the eager runtime: at Granularity 2 the rollback
// (coarser than the write) clobbers the neighbour's NT store, at slot
// granularity it does not.
func TestSpanPoisoningAndPromotion(t *testing.T) {
	if got := granTrial(t, 2); got != 7 {
		t.Errorf("span granularity: slot1 = %d, want 7 (rollback must clobber the NT store)", got)
	}
	if got := granTrial(t, 1); got != 99 {
		t.Errorf("slot granularity: slot1 = %d, want 99 (slot-level undo must preserve the NT store)", got)
	}
}
