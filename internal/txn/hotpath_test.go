package txn_test

// The hot path on every runtime: pooled descriptors come back clean,
// descriptor-local statistics flush exactly, the registry scans every
// transaction in flight, overflow included, and a removed commit sink costs
// no allocation.

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/stmapi"
	"repro/internal/txn"
)

// base returns the kernel descriptor a runtime's descriptor embeds.
func base(tx stmapi.Txn) *txn.Txn { return tx.(txn.Strategy).Base() }

// deferredOf returns the deferred-update descriptor a lazy or mvstm
// descriptor embeds; eager has none.
func deferredOf(tx stmapi.Txn) *txn.Deferred {
	if d := reflect.ValueOf(tx).Elem().FieldByName("Deferred"); d.IsValid() {
		return d.Addr().Interface().(*txn.Deferred)
	}
	return nil
}

// TestPooledDescriptorClean: a descriptor fetched from the pool carries
// nothing over from its last incarnation, whichever goroutine ran it: an
// empty read set, no held records, on a deferred-update runtime an empty
// write buffer and write set, no statistics delta left unflushed (begin's
// count of the attempt is the only one), and an ID no incarnation on any goroutine was
// given before, which is what record ownership needs (IDs come from
// per-descriptor blocks, so a goroutine that moves to another descriptor may
// be given a lower one). Every incarnation dirties its descriptor (a read set
// spilled past its inline capacity, a buffered or logged write per object
// read) and counts its goroutine's own cell up, so state bled between
// goroutines shows in the counts too. Eager's undo log is internal/stm's own
// TestPooledDescriptorClean.
func TestPooledDescriptorClean(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		const goroutines, iters = 4, 50
		var wg sync.WaitGroup
		var seen sync.Map // owner ID -> goroutine that was given it
		for g := 0; g < goroutines; g++ {
			o := f.cell()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					if err := f.rt.Atomic(func(tx stmapi.Txn) error {
						k, d := base(tx), deferredOf(tx)
						if k.Reads.Len() != 0 || k.Owned.Len() != 0 || d != nil && len(d.Buf.Ents) != 0 {
							t.Errorf("goroutine %d, iteration %d: dirty descriptor", g, i)
						}
						if k.Attempt() == 0 {
							if n := k.Unflushed(); n != 1 {
								t.Errorf("goroutine %d, iteration %d: %d statistics deltas at begin, want begin's 1", g, i, n)
							}
							if prev, dup := seen.LoadOrStore(k.ID(), g); dup {
								t.Errorf("goroutine %d, iteration %d: id %d already given to goroutine %d", g, i, k.ID(), prev)
							}
						}
						if v := tx.Read(o, 0); v != uint64(i) {
							t.Errorf("goroutine %d: read %d, want %d", g, v, i)
						}
						for j := 0; j < 12; j++ {
							c := f.cell()
							tx.Write(c, 1, tx.Read(c, 0)+1)
						}
						tx.Write(o, 0, uint64(i+1))
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
				}
				if got := o.LoadSlot(0); got != iters {
					t.Errorf("goroutine %d: final value %d, want %d", g, got, iters)
				}
			}()
		}
		wg.Wait()
	})
}

// TestStatsFlushUnderContention checks commit and abort accounting with
// contended increments and deliberate user aborts across goroutines: every
// begun attempt is accounted as exactly one commit or abort, access counts
// cover at least the committed work, and only committed increments land.
// (TestStatsFlushParallel is the kernel's own, over a scripted strategy.)
func TestStatsFlushUnderContention(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		o := f.cell()
		errUser := errors.New("user abort")
		const goroutines, iters = 8, 100
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
		if got := o.LoadSlot(0); got != wantCommits {
			t.Errorf("cell = %d, want %d (only committed increments)", got, wantCommits)
		}
	})
}

// TestQuiescenceShardedRegistry runs contended committing transactions in
// quiescence mode: every commit scans the registry and waits out the
// attempts in flight. The final count shows isolation held; an empty
// registry at the end shows begin and end stayed balanced.
func TestQuiescenceShardedRegistry(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{Quiescence: true})
		o := f.cell()
		const goroutines, iters = 8, 100
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					if err := f.rt.Atomic(func(tx stmapi.Txn) error {
						tx.Write(o, 0, tx.Read(o, 0)+1)
						return nil
					}); err != nil {
						t.Error(err)
						return
					}
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
	})
}

// TestRegistryOverflow holds more transactions open at once than the
// registry's slot array has room for: every one of them, overflow included,
// is seen by a scan (ActiveTransactions) and commits.
func TestRegistryOverflow(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		const total = 256 + 16 // the registry's slot array, and an overflow
		ready := make(chan struct{}, total)
		release := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < total; i++ {
			o := f.cell()
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := f.rt.Atomic(func(tx stmapi.Txn) error {
					tx.Write(o, 0, 1)
					ready <- struct{}{}
					<-release
					return nil
				}); err != nil {
					t.Error(err)
				}
			}()
		}
		for i := 0; i < total; i++ {
			<-ready
		}
		if n := f.rt.ActiveTransactions(); n != total {
			t.Errorf("active = %d, want %d (overflow transactions missing from the scan)", n, total)
		}
		close(release)
		wg.Wait()
		if n := f.rt.ActiveTransactions(); n != 0 {
			t.Errorf("active after completion = %d, want 0", n)
		}
		if got := f.rt.Stats().Commits; got != total {
			t.Errorf("commits = %d, want %d", got, total)
		}
	})
}

// countSink counts appends; WaitDurable is immediate.
type countSink struct{ appends int }

func (c *countSink) AppendRedo(txnID, stamp uint64, writes []stmapi.RedoWrite) (uint64, error) {
	c.appends++
	return uint64(c.appends), nil
}

func (c *countSink) WaitDurable(seq uint64) error { return nil }

// TestDisabledSinkAllocFree pins the commit-sink hook's disabled path: with
// no sink installed, including after one was installed and removed, a
// committed read-write transaction allocates nothing. Eager's count is exact
// under the race detector too; lazy's and mvstm's are only without it.
func TestDisabledSinkAllocFree(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		if raceEnabled && name != "eager" {
			t.Skip("race detector instrumentation allocates; exact alloc count only meaningful without -race")
		}
		f := newFixture(t, name, stmapi.CommonConfig{})
		o := f.cell()
		body := func(tx stmapi.Txn) error {
			tx.Write(o, 0, tx.Read(o, 0)+1)
			return nil
		}
		allocFree(t, f.rt, body, "never sinked")
		// Pooled descriptors that carried redo scratch must come back
		// allocation-free.
		sink := &countSink{}
		f.rt.(stmapi.DurableRuntime).SetCommitSink(sink)
		for i := 0; i < 20; i++ {
			if err := f.rt.Atomic(body); err != nil {
				t.Fatal(err)
			}
		}
		if sink.appends == 0 {
			t.Fatal("sink never saw a redo append while installed")
		}
		f.rt.(stmapi.DurableRuntime).SetCommitSink(nil)
		allocFree(t, f.rt, body, "sink removed")
	})
}

// allocFree fails the test unless body, committed on rt once its descriptor
// pool is warm, allocates nothing; when says in what state.
func allocFree(t *testing.T, rt stmapi.Runtime, body func(stmapi.Txn) error, when string) {
	t.Helper()
	for i := 0; i < 10; i++ {
		if err := rt.Atomic(body); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := rt.Atomic(body); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("%s: a transaction allocates %.1f objects, want 0", when, avg)
	}
}
