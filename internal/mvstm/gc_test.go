package mvstm

import (
	"sync"
	"testing"

	"repro/internal/stmapi"
	"repro/internal/txrec"
)

// TestGCReclaimsDeadVersions: with no reader pinning history, a collection
// prunes every chain down to its head (the newest node at or under the
// watermark stays, dead or not: the next install drops it).
func TestGCReclaimsDeadVersions(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	f.rt.gcEvery = -1 // no pruning at install; drive GC by hand
	o := f.heap.New(f.cls)
	const writes = 20
	for i := uint64(1); i <= writes; i++ {
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// One pre-image per commit.
	if got := chainLen(o); got != writes {
		t.Fatalf("chain length before GC = %d, want %d", got, writes)
	}
	reclaimed := f.rt.GC()
	if reclaimed != writes-1 {
		t.Errorf("reclaimed = %d, want %d", reclaimed, writes-1)
	}
	if got := chainLen(o); got != 1 {
		t.Errorf("chain length after GC = %d, want 1", got)
	}
	if got := o.MVHead.Load().Vals[0].Load(); got != writes-1 {
		t.Errorf("surviving head value = %d, want the last pre-image %d", got, writes-1)
	}
	if w := o.Rec.Load(); !txrec.IsShared(w) {
		t.Errorf("record after GC = %#x, want shared", w)
	}
	s := f.rt.Stats()
	if s.VersionsGCd != writes-1 {
		t.Errorf("VersionsGCd = %d, want %d", s.VersionsGCd, writes-1)
	}
	if s.VersionsLive != s.VersionsInstalled-s.VersionsGCd {
		t.Errorf("VersionsLive gauge inconsistent: %d != %d - %d",
			s.VersionsLive, s.VersionsInstalled, s.VersionsGCd)
	}
}

// TestGCPinnedByLongReader: a long-running snapshot reader pins its
// versions — a collection while it is live must keep the version its
// snapshot reads, and the reader's view must stay stable across the GC and
// further writes. Once the reader finishes, collection resumes past its
// snapshot.
func TestGCPinnedByLongReader(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	f.rt.gcEvery = -1
	o := f.heap.New(f.cls)
	write := func(v uint64) {
		t.Helper()
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 10; i++ {
		write(i)
	}

	started := make(chan uint64)
	release := make(chan struct{})
	done := make(chan uint64, 1)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		_ = f.rt.AtomicRead(func(tx stmapi.Txn) error {
			first := tx.Read(o, 0)
			started <- first
			<-release // hold the snapshot open across writes + GC
			done <- tx.Read(o, 0)
			return nil
		})
	}()
	first := <-started
	if first != 10 {
		t.Fatalf("reader first read = %d, want 10", first)
	}

	for i := uint64(11); i <= 20; i++ {
		write(i)
	}
	f.rt.GC()

	// The reader's version must have survived: some chain node still serves
	// value 10 (its snapshot predates writes 11..20).
	foundPinned := false
	for v := o.MVHead.Load(); v != nil; v = v.Prev() {
		if v.Vals[0].Load() == first {
			foundPinned = true
			break
		}
	}
	if !foundPinned {
		t.Error("GC reclaimed the version a live reader's snapshot reads")
	}

	close(release)
	if second := <-done; second != first {
		t.Errorf("reader view changed across GC: %d then %d", first, second)
	}
	<-finished // the pin goes when AtomicRead returns, not when its body does

	// Reader finished: its pin is gone, the watermark advances to the
	// clock, and collection prunes everything below the head.
	f.rt.GC()
	if got := chainLen(o); got != 1 {
		t.Errorf("chain length after unpinned GC = %d, want 1", got)
	}
	if lag := f.rt.Stats().WatermarkLag; lag != 0 {
		t.Errorf("watermark lag after quiescence = %d, want 0", lag)
	}
}

// TestGCUnderConcurrentLoad races writers, pinned snapshot readers, and
// explicit collections; run under -race this exercises the chain
// install/walk/sever interleavings. Every reader must see its snapshot
// stay internally consistent (two reads of slots kept equal by every
// writer must match).
func TestGCUnderConcurrentLoad(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	f.rt.gcEvery = 8 // frequent watermark refreshes too
	o := f.heap.New(f.cls)
	if err := f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, 0, 0)
		tx.Write(o, 1, 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for g := 0; g < 3; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := uint64(1); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = f.rt.Atomic(func(tx stmapi.Txn) error {
					v := tx.Read(o, 0) + 1
					tx.Write(o, 0, v)
					tx.Write(o, 1, v) // invariant: slot0 == slot1
					return nil
				})
			}
		}()
	}
	var gcs sync.WaitGroup
	gcs.Add(1)
	go func() {
		defer gcs.Done()
		for {
			select {
			case <-stop:
				return
			default:
				f.rt.GC()
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 500; i++ {
				_ = f.rt.AtomicRead(func(tx stmapi.Txn) error {
					a := tx.Read(o, 0)
					b := tx.Read(o, 1)
					if a != b {
						t.Errorf("torn snapshot: slot0=%d slot1=%d", a, b)
					}
					return nil
				})
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
	gcs.Wait()
	if n := f.rt.Stats().ReadOnlyAborts; n != 0 {
		t.Errorf("read-only aborts under GC churn = %d, want 0", n)
	}
}
