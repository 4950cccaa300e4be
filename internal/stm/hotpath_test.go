package stm

// Tests for the scalable hot path: descriptor pooling (no state leaks
// across reused descriptors), descriptor-local statistics flushed at
// commit/abort, and the sharded slot-array transaction registry (including
// its overflow path and quiescence scans). All are run under -race in CI.

import (
	"sync"
	"testing"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/txn/txntest"
)

// TestPooledDescriptorClean verifies that a descriptor fetched from the
// pool carries nothing over from its previous incarnation: empty read and
// owned sets, an empty undo log, and a fresh ID.
func TestPooledDescriptorClean(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	var lastID uint64
	for i := 0; i < 50; i++ {
		err := f.rt.Atomic(func(stx stmapi.Txn) error {
			tx := stx.(*Txn)
			if tx.Reads.Len() != 0 || tx.Owned.Len() != 0 {
				t.Errorf("iter %d: dirty read/owned set (%d/%d entries)",
					i, tx.Reads.Len(), tx.Owned.Len())
			}
			if len(tx.undo) != 0 {
				t.Errorf("iter %d: dirty undo log (%d entries)", i, len(tx.undo))
			}
			if tx.ID() <= lastID {
				t.Errorf("iter %d: id %d not fresh (last %d)", i, tx.ID(), lastID)
			}
			lastID = tx.ID()
			// Dirty the descriptor thoroughly for the next reuse check:
			// spill the read set past its inline capacity and write two
			// slots.
			for j := 0; j < 12; j++ {
				c := f.newCell()
				_ = tx.Read(c, 0)
			}
			tx.Write(o, 0, uint64(i))
			tx.Write(o, 1, uint64(i))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPooledDescriptorsParallel hammers the pool from many goroutines, each
// transacting on its own object, and checks that no reused descriptor ever
// bleeds state into another goroutine's transaction.
func TestPooledDescriptorsParallel(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	const goroutines = 8
	const iters = 200
	objs := make([]*objmodel.Object, goroutines)
	for g := range objs {
		objs[g] = f.newCell()
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			o := objs[g]
			for i := 1; i <= iters; i++ {
				err := f.rt.Atomic(func(stx stmapi.Txn) error {
					tx := stx.(*Txn)
					if tx.Reads.Len() != 0 || tx.Owned.Len() != 0 || len(tx.undo) != 0 {
						t.Errorf("goroutine %d: dirty descriptor", g)
					}
					prev := tx.Read(o, 0)
					if prev != uint64(i-1) {
						t.Errorf("goroutine %d iter %d: read %d, want %d", g, i, prev, i-1)
					}
					tx.Write(o, 0, uint64(i))
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, o := range objs {
		if got := o.LoadSlot(0); got != iters {
			t.Errorf("goroutine %d: final value %d, want %d", g, got, iters)
		}
	}
}

// TestStatsFlushParallel checks the descriptor-local counter flush under
// parallel commits and aborts: every begun attempt is accounted as exactly
// one commit or abort, and access counts cover at least the committed work.
func TestStatsFlushParallel(t *testing.T) { txntest.StatsFlushParallel(t, "eager") }

// TestQuiescenceShardedRegistry runs contended committing transactions in
// quiescence mode: every commit scans the slot-array registry and waits out
// concurrently active transactions. The final count proves isolation held;
// an empty registry at the end proves begin/end stayed balanced.
func TestQuiescenceShardedRegistry(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{Quiescence: true})
	o := f.newCell()
	const goroutines = 8
	const iters = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_ = f.rt.Atomic(func(tx stmapi.Txn) error {
					tx.Write(o, 0, tx.Read(o, 0)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if got := o.LoadSlot(0); got != goroutines*iters {
		t.Errorf("cell = %d, want %d", got, goroutines*iters)
	}
	if n := f.rt.ActiveTransactions(); n != 0 {
		t.Errorf("active transactions after quiesced run = %d, want 0", n)
	}
}

// TestRegistryOverflow holds more concurrent transactions open than the
// slot array can hold, forcing the overflow path, and checks that scans
// (ActiveTransactions) still see every one of them.
func TestRegistryOverflow(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	const extra = 16
	const slotArray = 256 // the capacity of the kernel registry's slot array
	const total = slotArray + extra
	ready := make(chan struct{}, total)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		o := f.newCell()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = f.rt.Atomic(func(tx stmapi.Txn) error {
				tx.Write(o, 0, 1)
				ready <- struct{}{}
				<-release
				return nil
			})
		}()
	}
	for i := 0; i < total; i++ {
		<-ready
	}
	if n := f.rt.ActiveTransactions(); n != total {
		t.Errorf("active = %d, want %d (overflow transactions missing from scan)", n, total)
	}
	close(release)
	wg.Wait()
	if n := f.rt.ActiveTransactions(); n != 0 {
		t.Errorf("active after completion = %d, want 0", n)
	}
	if got := f.rt.Counters.Commits.Load(); got != total {
		t.Errorf("commits = %d, want %d", got, total)
	}
}
