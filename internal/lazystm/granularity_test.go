package lazystm

import (
	"testing"

	"repro/internal/stmapi"
)

// lazyGranTrial is the lazy-runtime analog of the eager span-poisoning
// trial, on a fresh runtime at granularity g: a transaction buffers a write
// to slot0 — at span granularity the buffer snapshots slot1 too — then a
// non-transactional store hits slot1 before commit. At span granularity the
// commit's write-back rewrites the whole span from the stale snapshot,
// clobbering the NT store; at slot granularity the write-back covers only
// slot0 and the store survives. Returns slot1's final value.
func lazyGranTrial(t *testing.T, g int) uint64 {
	t.Helper()
	f := newFixture(t, stmapi.CommonConfig{Granularity: g})
	o := f.heap.New(f.cls)
	if err := f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, 1, 7)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, 0, 1)
		o.StoreSlot(1, 99)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return o.LoadSlot(1)
}

// TestLazySpanPoisoningAndPromotion pins the buffered-update flavor of the
// Section 2.4 granularity anomaly at Granularity 2 and its absence at slot
// granularity.
func TestLazySpanPoisoningAndPromotion(t *testing.T) {
	if got := lazyGranTrial(t, 2); got != 7 {
		t.Errorf("span granularity: slot1 = %d, want 7 (write-back must clobber the NT store)", got)
	}
	if got := lazyGranTrial(t, 1); got != 99 {
		t.Errorf("slot granularity: slot1 = %d, want 99 (slot-level buffering must preserve the NT store)", got)
	}
}

// TestLazyClockFastpath pins the lazy runtime's TL2 stats: uncontended
// writing commits advance the clock and validate on the fast path.
func TestLazyClockFastpath(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.heap.New(f.cls)
	const n = 50
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
	if got := f.rt.Counters.FastpathValidations.Load(); got == 0 {
		t.Error("fastpath validations = 0, want > 0")
	}
	if got := f.rt.Counters.FallbackWalks.Load(); got != 0 {
		t.Errorf("fallback walks = %d, want 0", got)
	}
}
