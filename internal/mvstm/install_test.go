package mvstm

// The install path: the slice write set, the newest version read off the
// object, and chains pruned where they grow. Run under -race in CI, repeated,
// because the two concurrent tests assert on interleavings the runner has to
// be given chances to produce.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/objmodel"
	"repro/internal/txn"
)

// chainNodes walks every object's chain (callers are at quiescence) and
// returns the total node count and the longest chain.
func chainNodes(h *objmodel.Heap) (total, longest int) {
	for i := 1; i <= h.Len(); i++ {
		n := chainLen(h.Get(objmodel.Ref(i)))
		total += n
		longest = max(longest, n)
	}
	return total, longest
}

// TestInstallPrunesBelowWatermark: writers alone, GC never called. Installs
// prune against the cached watermark, so the live-version gauge is the number
// of nodes on chains throughout, and once no descheduled writer's snapshot
// holds the watermark back every chain ends one or two nodes long.
func TestInstallPrunesBelowWatermark(t *testing.T) {
	f := newFixture(t, Config{})
	const writers, perWriter, commits = 4, 512, 1500
	objs := make([]*objmodel.Object, writers*perWriter)
	for i := range objs {
		objs[i] = f.heap.New(f.cls)
	}
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Round-robin over the writer's own partition: an object is
			// rewritten long after the watermark has passed its last install.
			mine := objs[g*perWriter : (g+1)*perWriter]
			for i := 0; i < commits; i++ {
				a, b := mine[2*i%perWriter], mine[(2*i+1)%perWriter]
				if err := f.rt.Atomic(nil, func(tx *Txn) error {
					tx.Write(a, 0, tx.Read(a, 0)+1)
					tx.Write(b, 1, tx.Read(b, 1)+1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// With more writers than processors one is always descheduled inside a
	// transaction, pinning what the others push meanwhile. A last pass by one
	// writer finds the watermark within a refresh period of the clock.
	check := func(when string, installs int64) {
		t.Helper()
		total, _ := chainNodes(f.heap)
		s := f.rt.Stats.Snapshot()
		if s.VersionsInstalled != installs {
			t.Errorf("%s: VersionsInstalled = %d, want %d (one per written object per commit)", when, s.VersionsInstalled, installs)
		}
		if s.VersionsGCd == 0 {
			t.Errorf("%s: installs reclaimed nothing", when)
		}
		if s.VersionsLive != int64(total) {
			t.Errorf("%s: VersionsLive = %d, a heap walk counts %d nodes", when, s.VersionsLive, total)
		}
	}
	check("after the concurrent writers", 2*writers*commits)
	for _, o := range objs {
		if err := f.rt.Atomic(nil, func(tx *Txn) error { tx.Write(o, 0, 0); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	check("after the last pass", 2*writers*commits+int64(len(objs)))
	if _, longest := chainNodes(f.heap); longest > 2 {
		t.Errorf("longest chain = %d nodes, want at most 2 without any GC() call", longest)
	}
}

// TestPinnedReaderSurvivesInstallPrune is TestGCPinnedByLongReader against
// pruning at install: a reader pinned at snapshot S keeps reading every
// object at its S value while writers push thousands of versions over them
// (each push prunes), and the chains shrink once it has finished.
func TestPinnedReaderSurvivesInstallPrune(t *testing.T) {
	f := newFixture(t, Config{GCEvery: 1}) // every commit prunes against a fresh watermark
	const nObjs, writers, commits = 8, 3, 400
	objs := make([]*objmodel.Object, nObjs)
	for i := range objs {
		objs[i] = f.heap.New(f.cls)
	}
	writeAll := func(v func(i int) uint64) {
		t.Helper()
		if err := f.rt.Atomic(nil, func(tx *Txn) error {
			for i, o := range objs {
				tx.Write(o, 0, v(i))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	writeAll(func(i int) uint64 { return uint64(100 + i) })

	pinned := make(chan struct{})
	var stop atomic.Bool
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		_ = f.rt.AtomicRead(func(tx *Txn) error {
			for pass := 0; ; pass++ {
				last := stop.Load() // one full pass after the writers are done
				for i, o := range objs {
					if got := tx.Read(o, 0); got != uint64(100+i) {
						t.Errorf("pass %d: object %d reads %d at the pinned snapshot, want %d", pass, i, got, 100+i)
						return nil
					}
				}
				if pass == 0 {
					close(pinned)
				}
				if last {
					return nil
				}
			}
		})
	}()
	<-pinned

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				a, b := objs[(g+i)%nObjs], objs[(g+i+3)%nObjs]
				_ = f.rt.Atomic(nil, func(tx *Txn) error {
					tx.Write(a, 0, tx.Read(a, 0)+1000)
					tx.Write(b, 0, tx.Read(b, 0)+1000)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	<-readerDone
	if _, longest := chainNodes(f.heap); longest <= 2 {
		t.Errorf("longest chain = %d while a reader pinned the history, want it kept", longest)
	}
	if n := f.rt.Stats.ReadOnlyAborts.Load(); n != 0 {
		t.Errorf("read-only aborts = %d, want 0", n)
	}

	// The pin is gone: the next install on each object drops the history.
	writeAll(func(int) uint64 { return 0 })
	total, longest := chainNodes(f.heap)
	if longest != 1 {
		t.Errorf("longest chain = %d after the reader finished and one more install, want 1", longest)
	}
	if live := f.rt.Stats.Snapshot().VersionsLive; live != int64(total) {
		t.Errorf("VersionsLive = %d, a heap walk counts %d nodes", live, total)
	}
}

// TestSnapshotReadInlineVsChain drives a snapshot read into another commit's
// window, between its write version and its release, and checks the value
// read and whether the read waited, for snapshots on every side of the
// in-flight write version. Commit A has written 10 over 0 at version vA;
// commit B, in flight, writes 20. Before B's install the chain head is A's
// pre-image (timestamp 1); after it, B's (timestamp vA).
func TestSnapshotReadInlineVsChain(t *testing.T) {
	type when int
	const (
		beforeA   when = iota // rv < vA: older than the image B overwrites
		beforeB               // vA <= rv < B's write version
		inWindow              // rv == B's write version
		afterTick             // rv > B's write version (an unrelated commit ticked the clock)
	)
	cases := []struct {
		name        string
		begin       when
		afterInstal bool // probe from OnAfterWriteback, not OnAfterCommitPoint
		wantWait    bool
		want        uint64
	}{
		// A chain node above rv is the one case that does not wait.
		{"rv below pre-image, after install", beforeA, true, false, 0},
		{"rv below pre-image, before install", beforeA, false, true, 0},
		{"rv below write version, after install", beforeB, true, true, 10},
		{"rv below write version, before install", beforeB, false, true, 10},
		{"rv equals write version, after install", inWindow, true, true, 20},
		{"rv equals write version, before install", inWindow, false, true, 20},
		{"rv above write version, after install", afterTick, true, true, 20},
		{"rv above write version, before install", afterTick, false, true, 20},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var probe func(*txn.Txn)
			armed := false // only commit B is probed, and once
			fire := func(tx *txn.Txn) {
				if armed {
					armed = false
					probe(tx)
				}
			}
			hooks := txn.CommitHooks{OnAfterCommitPoint: fire}
			if c.afterInstal {
				hooks = txn.CommitHooks{OnAfterWriteback: func(tx *txn.Txn, _ int) { fire(tx) }}
			}
			f := newFixture(t, Config{})
			f.rt.SetCommitHooks(hooks)
			o, other := f.heap.New(f.cls), f.heap.New(f.cls)
			write := func(o *objmodel.Object, v uint64) {
				t.Helper()
				if err := f.rt.Atomic(nil, func(tx *Txn) error { tx.Write(o, 0, v); return nil }); err != nil {
					t.Fatal(err)
				}
			}

			// reader begins a read-only transaction, reports its snapshot,
			// and reads o once released.
			type result struct{ rv, val uint64 }
			begun, release, res := make(chan uint64, 1), make(chan struct{}), make(chan result, 1)
			reader := func() {
				_ = f.rt.AtomicRead(func(tx *Txn) error {
					begun <- tx.RV
					<-release
					res <- result{tx.RV, tx.Read(o, 0)}
					return nil
				})
			}
			var rv, wvB uint64
			waited := false
			probe = func(b *txn.Txn) {
				wvB = b.WV
				switch c.begin {
				case inWindow:
					go reader()
					rv = <-begun
				case afterTick:
					write(other, 1)
					go reader()
					rv = <-begun
				}
				close(release)
				select {
				case r := <-res:
					res <- r
				case <-time.After(30 * time.Millisecond):
					waited = true // still parked behind B's record, which this hook is holding
				}
			}

			if c.begin == beforeA {
				go reader()
				rv = <-begun
			}
			write(o, 10) // commit A
			if c.begin == beforeB {
				go reader()
				rv = <-begun
			}
			armed = true
			write(o, 20) // commit B, probed from inside
			r := <-res

			switch c.begin {
			case beforeA, beforeB:
				if rv >= wvB {
					t.Fatalf("snapshot %d is not below the write version %d", rv, wvB)
				}
			case inWindow:
				if rv != wvB {
					t.Fatalf("snapshot %d, want the in-flight write version %d", rv, wvB)
				}
			case afterTick:
				if rv <= wvB {
					t.Fatalf("snapshot %d is not above the write version %d", rv, wvB)
				}
			}
			if r.val != c.want {
				t.Errorf("read %d at snapshot %d (write version %d), want %d", r.val, rv, wvB, c.want)
			}
			if waited != c.wantWait {
				t.Errorf("read waited = %v, want %v", waited, c.wantWait)
			}
		})
	}
}
