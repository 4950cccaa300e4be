package lazystm

import (
	"sync"
	"testing"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
)

func granFixture(t testing.TB) *fixture {
	return newFixture(t, Config{CommonConfig: stmapi.CommonConfig{Granularity: 2}})
}

func seedSlot1(t *testing.T, f *fixture, o *objmodel.Object, v uint64) {
	t.Helper()
	if err := f.rt.Atomic(nil, func(tx *Txn) error {
		tx.Write(o, 1, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// lazyGranTrial is the lazy-runtime analog of the eager span-poisoning
// trial: a transaction buffers a write to slot0 — at span granularity the
// buffer snapshots slot1 too — then a non-transactional store hits slot1
// before commit. At span granularity the commit's write-back rewrites the
// whole span from the stale snapshot, clobbering the NT store; at slot
// granularity the write-back covers only slot0 and the store survives.
// Returns slot1's final value.
func lazyGranTrial(t *testing.T, f *fixture, o *objmodel.Object) uint64 {
	t.Helper()
	if err := f.rt.Atomic(nil, func(tx *Txn) error {
		tx.Write(o, 0, 1)
		o.StoreSlot(1, 99)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return o.LoadSlot(1)
}

// TestLazySpanPoisoningAndPromotion pins the buffered-update flavor of the
// Section 2.4 granularity anomaly and its removal by promotion.
func TestLazySpanPoisoningAndPromotion(t *testing.T) {
	f := granFixture(t)

	coarse := f.heap.New(f.cls)
	seedSlot1(t, f, coarse, 7)
	if got := lazyGranTrial(t, f, coarse); got != 7 {
		t.Errorf("span granularity: slot1 = %d, want 7 (write-back must clobber the NT store)", got)
	}

	fine := f.heap.New(f.cls)
	seedSlot1(t, f, fine, 7)
	if !f.rt.PromoteObject(fine) {
		t.Fatal("PromoteObject reported no change")
	}
	if got := lazyGranTrial(t, f, fine); got != 99 {
		t.Errorf("promoted: slot1 = %d, want 99 (slot-level buffering must preserve the NT store)", got)
	}

	if !f.rt.DemoteObject(fine) {
		t.Fatal("DemoteObject reported no change")
	}
	seedSlot1(t, f, fine, 7)
	if got := lazyGranTrial(t, f, fine); got != 7 {
		t.Errorf("demoted: slot1 = %d, want 7 (span write-back again)", got)
	}

	if got := f.rt.Stats.GranPromotions.Load(); got != 1 {
		t.Errorf("promotions = %d, want 1", got)
	}
	if got := f.rt.Stats.GranDemotions.Load(); got != 1 {
		t.Errorf("demotions = %d, want 1", got)
	}
}

// TestLazyPromotionRacesActiveTxns hammers granularity transitions while
// transactions run (meaningful under -race): in-flight transactions keep
// their begin-time granularity, so the write-back of an already-buffered
// span must not be affected by a concurrent promotion.
func TestLazyPromotionRacesActiveTxns(t *testing.T) {
	f := granFixture(t)
	const nObjs = 8
	objs := make([]*objmodel.Object, nObjs)
	for i := range objs {
		objs[i] = f.heap.New(f.cls)
	}
	var workers sync.WaitGroup
	for g := 0; g < 4; g++ {
		workers.Add(1)
		go func(seed uint64) {
			defer workers.Done()
			r := seed
			for i := 0; i < 2000; i++ {
				_ = f.rt.Atomic(nil, func(tx *Txn) error {
					r = r*6364136223846793005 + 1442695040888963407
					o := objs[r%nObjs]
					tx.Write(o, int(r>>32)&1, tx.Read(o, int(r>>16)&1)+1)
					return nil
				})
			}
		}(uint64(g + 1))
	}
	stop := make(chan struct{})
	var promoter sync.WaitGroup
	promoter.Add(1)
	go func() {
		defer promoter.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			o := objs[i%nObjs]
			if i%2 == 0 {
				f.rt.PromoteObject(o)
			} else {
				f.rt.DemoteObject(o)
			}
		}
	}()
	workers.Wait()
	close(stop)
	promoter.Wait()
	if err := f.rt.Atomic(nil, func(tx *Txn) error {
		tx.Write(objs[0], 0, 42)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLazyClockFastpath pins the lazy runtime's TL2 stats: uncontended
// writing commits advance the clock and validate on the fast path.
func TestLazyClockFastpath(t *testing.T) {
	f := newFixture(t, Config{})
	o := f.heap.New(f.cls)
	const n = 50
	for i := 0; i < n; i++ {
		if err := f.rt.Atomic(nil, func(tx *Txn) error {
			tx.Write(o, 0, tx.Read(o, 0)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.rt.Stats.ClockAdvances.Load(); got != n {
		t.Errorf("clock advances = %d, want %d", got, n)
	}
	if got := f.rt.Stats.FastpathValidations.Load(); got == 0 {
		t.Error("fastpath validations = 0, want > 0")
	}
	if got := f.rt.Stats.FallbackWalks.Load(); got != 0 {
		t.Errorf("fallback walks = %d, want 0", got)
	}
}
