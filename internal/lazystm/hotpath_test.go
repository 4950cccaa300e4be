package lazystm

// Hot-path tests for the lazy runtime: pooled descriptors must come back
// with an empty read set and write buffer, and descriptor-local statistics
// must flush correctly under parallel commit/abort. Run under -race in CI.

import (
	"testing"

	"repro/internal/stmapi"
	"repro/internal/txn/txntest"
)

// TestPooledDescriptorClean checks that a reused descriptor starts with an
// empty read set and write buffer even after a transaction that dirtied
// both heavily.
func TestPooledDescriptorClean(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.heap.New(f.cls)
	for i := 0; i < 50; i++ {
		err := f.rt.Atomic(func(stx stmapi.Txn) error {
			tx := stx.(*Txn)
			if tx.Reads.Len() != 0 || len(tx.Buf.Ents) != 0 {
				t.Errorf("iter %d: dirty descriptor (reads %d, buffered slots %d)",
					i, tx.Reads.Len(), len(tx.Buf.Ents))
			}
			// Spill the read set past its inline capacity and buffer writes
			// to several spans so the next iteration exercises a real reset.
			for j := 0; j < 12; j++ {
				c := f.heap.New(f.cls)
				_ = tx.Read(c, 0)
				tx.Write(c, 1, uint64(j))
			}
			tx.Write(o, 0, tx.Read(o, 0)+1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := o.LoadSlot(0); got != 50 {
		t.Errorf("cell = %d, want 50", got)
	}
}

// TestStatsFlushParallel checks commit/abort accounting with contended
// increments and deliberate user aborts across goroutines.
func TestStatsFlushParallel(t *testing.T) { txntest.StatsFlushParallel(t, "lazy") }
