package stm

import (
	"sync"
	"testing"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
)

func granFixture(t testing.TB) *fixture {
	return newFixture(t, Config{CommonConfig: stmapi.CommonConfig{Granularity: 2}})
}

// seedSlot1 commits an initial value into slot1 so rollback effects on the
// neighbouring slot are observable.
func seedSlot1(t *testing.T, f *fixture, o *objmodel.Object, v uint64) {
	t.Helper()
	if err := f.rt.Atomic(nil, func(tx *Txn) error {
		tx.Write(o, 1, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// granTrial runs the GLU abort-path shape against o: a transaction writes
// slot0 (at span granularity this logs undo for slot1 too), a simulated
// non-transactional store hits slot1 while the transaction owns the record,
// and the transaction restarts. Returns slot1's final value: at span
// granularity the rollback replays the stale span and clobbers the NT
// store; at slot granularity the NT store survives.
func granTrial(t *testing.T, f *fixture, o *objmodel.Object) uint64 {
	t.Helper()
	runs := 0
	if err := f.rt.Atomic(nil, func(tx *Txn) error {
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

// TestSpanPoisoningAndPromotion pins both sides of the adaptive-granularity
// contract: an unpromoted object keeps the paper's span-poisoning anomaly
// (Section 2.4 — rollback granularity coarser than the write), and
// promotion to slot granularity removes it.
func TestSpanPoisoningAndPromotion(t *testing.T) {
	f := granFixture(t)

	coarse := f.newCell()
	seedSlot1(t, f, coarse, 7)
	if got := granTrial(t, f, coarse); got != 7 {
		t.Errorf("span granularity: slot1 = %d, want 7 (rollback must clobber the NT store)", got)
	}

	fine := f.newCell()
	seedSlot1(t, f, fine, 7)
	if !f.rt.PromoteObject(fine) {
		t.Fatal("PromoteObject reported no change")
	}
	if got := granTrial(t, f, fine); got != 99 {
		t.Errorf("promoted: slot1 = %d, want 99 (slot-level undo must preserve the NT store)", got)
	}

	// Demotion restores span behaviour.
	if !f.rt.DemoteObject(fine) {
		t.Fatal("DemoteObject reported no change")
	}
	seedSlot1(t, f, fine, 7)
	if got := granTrial(t, f, fine); got != 7 {
		t.Errorf("demoted: slot1 = %d, want 7 (span undo again)", got)
	}

	if got := f.rt.Stats.GranPromotions.Load(); got != 1 {
		t.Errorf("promotions = %d, want 1", got)
	}
	if got := f.rt.Stats.GranDemotions.Load(); got != 1 {
		t.Errorf("demotions = %d, want 1", got)
	}
}

// TestPromoteIdempotent: re-promoting and re-demoting report no change.
func TestPromoteIdempotent(t *testing.T) {
	f := granFixture(t)
	o := f.newCell()
	if !f.rt.PromoteObject(o) || f.rt.PromoteObject(o) {
		t.Error("promote: want true then false")
	}
	if !f.rt.DemoteObject(o) || f.rt.DemoteObject(o) {
		t.Error("demote: want true then false")
	}
}

// TestPromotionRacesActiveTxns hammers promotion/demotion transitions while
// transactions run (meaningful under -race): in-flight transactions keep
// their begin-time granularity, so no transition may corrupt state or trip
// the race detector.
func TestPromotionRacesActiveTxns(t *testing.T) {
	f := granFixture(t)
	const nObjs = 8
	objs := make([]*objmodel.Object, nObjs)
	for i := range objs {
		objs[i] = f.newCell()
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
	// Final sanity: a fresh transaction still commits.
	if err := f.rt.Atomic(nil, func(tx *Txn) error {
		tx.Write(objs[0], 0, 42)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptGranularityFromHotspots: abort blame feeds the tracer's hotspot
// table, and AdaptGranularity promotes the hottest object and demotes
// everything else.
func TestAdaptGranularityFromHotspots(t *testing.T) {
	f := granFixture(t)
	tr := trace.New(trace.Config{})
	f.rt.SetTracer(tr)
	x, cold := f.newCell(), f.newCell()

	// Deterministic abort blamed on x: read x, then an NT-barrier-shaped
	// bump invalidates it before the transactional write-acquire.
	runs := 0
	if err := f.rt.Atomic(nil, func(tx *Txn) error {
		runs++
		v := tx.Read(x, 0)
		if runs == 1 {
			if _, ok := x.Rec.AcquireAnon(); !ok {
				t.Fatal("acquire failed")
			}
			x.StoreSlot(0, 10)
			f.heap.Clock().Tick()
			x.Rec.ReleaseAnon()
		}
		tx.Write(x, 1, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("runs = %d, want 2", runs)
	}

	// Pre-promote the cold object so adaptation has something to demote.
	f.rt.PromoteObject(cold)

	promoted, demoted := f.rt.AdaptGranularity(1)
	if promoted != 1 || demoted != 1 {
		t.Fatalf("AdaptGranularity = (%d promoted, %d demoted), want (1, 1)", promoted, demoted)
	}
	// Neither probe changes the table unless the assertion it makes fails.
	if f.rt.PromoteObject(x) {
		t.Error("hot object not promoted")
	}
	if f.rt.DemoteObject(cold) {
		t.Error("cold object still promoted")
	}

	// With no hot budget everything demotes.
	promoted, demoted = f.rt.AdaptGranularity(0)
	if promoted != 0 || demoted != 1 {
		t.Fatalf("AdaptGranularity(0) = (%d, %d), want (0, 1)", promoted, demoted)
	}
}
