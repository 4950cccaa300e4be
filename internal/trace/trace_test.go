package trace

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestRingRetainsWithinCapacity(t *testing.T) {
	tr := New(Config{ShardCapacity: 64, Shards: 1})
	for i := 0; i < 50; i++ {
		tr.Record(EvCommit, uint64(i+1), 0, 0, 0)
	}
	evs := tr.Events()
	if len(evs) != 50 {
		t.Fatalf("events = %d, want 50", len(evs))
	}
	for i, ev := range evs {
		if ev.Txn != uint64(i+1) {
			t.Fatalf("event %d: txn %d, want %d (order lost)", i, ev.Txn, i+1)
		}
		if ev.Kind != EvCommit {
			t.Fatalf("event %d: kind %v", i, ev.Kind)
		}
	}
	if total, dropped := tr.Recorded(); total != 50 || dropped != 0 {
		t.Fatalf("recorded = %d/%d, want 50/0", total, dropped)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := New(Config{ShardCapacity: 16, Shards: 1})
	for i := 0; i < 40; i++ {
		tr.Record(EvRead, uint64(i), 0, 0, 0)
	}
	evs := tr.Events()
	if len(evs) != 16 {
		t.Fatalf("retained = %d, want 16", len(evs))
	}
	// Oldest retained should be txn 24 (40-16), newest txn 39.
	if evs[0].Txn != 24 || evs[len(evs)-1].Txn != 39 {
		t.Errorf("retained window [%d, %d], want [24, 39]", evs[0].Txn, evs[len(evs)-1].Txn)
	}
	if total, dropped := tr.Recorded(); total != 40 || dropped != 24 {
		t.Errorf("recorded = %d/%d, want 40/24", total, dropped)
	}
	if got := tr.Count(EvRead); got != 40 {
		t.Errorf("Count(EvRead) = %d, want 40 (counts must survive overwrite)", got)
	}
}

// TestRecordParallel hammers Record from many goroutines (run under -race
// in CI): no event may be lost while the shard rings have capacity, and no
// count either (a kind counted in the wrong ring, or outside its lock).
func TestRecordParallel(t *testing.T) {
	const goroutines = 8
	const perG = 500
	tr := New(Config{ShardCapacity: goroutines * perG, Shards: 4})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Record(EvCommit, uint64(g*perG+i), uint64(g), i, 1)
				if i%8 == 0 {
					_ = tr.Events() // readers race the writers
				}
			}
		}(g)
	}
	wg.Wait()
	evs := tr.Events()
	if len(evs) != goroutines*perG {
		t.Fatalf("events = %d, want %d", len(evs), goroutines*perG)
	}
	if got := tr.Count(EvCommit); got != goroutines*perG {
		t.Fatalf("Count(EvCommit) = %d, want %d", got, goroutines*perG)
	}
	seen := make(map[uint64]bool, len(evs))
	for _, ev := range evs {
		if seen[ev.Txn] {
			t.Fatalf("duplicate event for txn %d", ev.Txn)
		}
		seen[ev.Txn] = true
	}
}

// TestRingSpansWholeCacheLines: a ring's per-kind counts fill it out to
// whole cache lines, so neighbouring shards' hot fields never share one.
func TestRingSpansWholeCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(ring{}); n%64 != 0 {
		t.Fatalf("sizeof(ring) = %d, not a multiple of 64", n)
	}
}

func TestHotspotsTop(t *testing.T) {
	var h Hotspots
	for i := 0; i < 100; i++ {
		h.BumpConflict(7)
	}
	for i := 0; i < 10; i++ {
		h.BumpAbort(7)
	}
	h.BumpConflict(3)
	h.BumpAbort(5)
	h.BumpAbort(5)
	top := h.Top(2)
	if len(top) != 2 {
		t.Fatalf("top = %v", top)
	}
	if top[0].Obj != 7 || top[0].Conflicts != 100 || top[0].Aborts != 10 {
		t.Errorf("top[0] = %+v, want obj 7 with 100/10", top[0])
	}
	if top[1].Obj != 5 {
		t.Errorf("top[1] = %+v, want obj 5 (2 aborts beat 1 conflict)", top[1])
	}
	if all := h.Top(0); len(all) != 3 {
		t.Errorf("Top(0) = %d entries, want 3", len(all))
	}
}

func TestHotspotsParallel(t *testing.T) {
	var h Hotspots
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.BumpConflict(uint64(i % 17))
				if i%10 == 0 {
					h.BumpAbort(uint64(g))
				}
			}
		}(g)
	}
	wg.Wait()
	var conflicts int64
	for _, e := range h.Top(0) {
		conflicts += e.Conflicts
	}
	if conflicts != 8*1000 {
		t.Errorf("total conflicts = %d, want 8000", conflicts)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	// 90 fast observations (~1µs) and 10 slow ones (~1ms).
	for i := 0; i < 90; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_000_000)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.50)
	p99 := h.Quantile(0.99)
	if p50 < 1000 || p50 >= 4096 {
		t.Errorf("p50 = %dns, want the ~1µs bucket", p50)
	}
	if p99 < 1_000_000 || p99 >= 4_194_304 {
		t.Errorf("p99 = %dns, want the ~1ms bucket", p99)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.P50Ns != p50 || s.P99Ns != p99 {
		t.Errorf("snapshot = %+v, disagrees with live quantiles %d/%d", s, p50, p99)
	}
	if s.SumNs != 90*1000+10*1_000_000 {
		t.Errorf("sum = %d", s.SumNs)
	}
	if len(s.Buckets) != 2 {
		t.Errorf("non-empty buckets = %d, want 2", len(s.Buckets))
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %d", got)
	}
	h.Observe(0)
	h.Observe(-5) // clamped to the zero bucket
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("zero-duration quantile = %d", got)
	}
	h.Observe(1 << 62) // far past the last bucket: clamped, not dropped
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Quantile(1.0); got != BucketUpperNs(HistBuckets-1) {
		t.Errorf("max quantile = %d, want last bucket bound", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	tr := New(Config{ShardCapacity: 32, Shards: 1})
	tr.Record(EvBegin, 1, 0, 0, 0)
	tr.Record(EvConflict, 1, 42, 0, 0)
	tr.Hot().BumpConflict(42)
	tr.Hot().BumpAbort(42)
	tr.ObserveCommit(2 * time.Microsecond)
	tr.ObserveAbortGap(time.Millisecond)
	tr.ObserveQuiesce(time.Microsecond)

	snap := tr.Snapshot(5)
	if snap.Events != 2 || snap.ByKind["begin"] != 1 || snap.ByKind["conflict"] != 1 {
		t.Fatalf("snapshot counts = %+v", snap)
	}
	if len(snap.Hotspots) != 1 || snap.Hotspots[0].Obj != 42 {
		t.Fatalf("hotspots = %+v", snap.Hotspots)
	}
	if snap.CommitLatency.Count != 1 || snap.AbortToRetry.Count != 1 || snap.QuiesceWait.Count != 1 {
		t.Fatalf("histograms = %+v", snap)
	}

	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Events != snap.Events || back.Hotspots[0].Aborts != 1 {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		EvBegin: "begin", EvRead: "read", EvWrite: "write", EvLockAcquire: "lock-acquire",
		EvConflict: "conflict", EvAbort: "abort", EvRetry: "retry", EvCommit: "commit",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Errorf("out-of-range kind: %q", Kind(200).String())
	}
}
