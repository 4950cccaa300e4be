package stm

// Tests for the observability layer on the eager runtime: the disabled
// path must stay allocation-free (committed transactions remain 0 allocs
// with no tracer installed), concurrent tracing must lose no events within
// ring capacity (run under -race in CI), and conflict attribution must
// name the object that actually caused the aborts.

import (
	"sync"
	"testing"

	"repro/internal/stmapi"
	"repro/internal/trace"
)

// TestDisabledTracerAllocFree pins the PR-1 property that the tracer hooks
// must not regress: with no tracer installed, a committed top-level
// transaction performs zero heap allocations.
func TestDisabledTracerAllocFree(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	body := func(tx stmapi.Txn) error {
		tx.Write(o, 0, tx.Read(o, 0)+1)
		return nil
	}
	// Warm the descriptor pool.
	for i := 0; i < 10; i++ {
		if err := f.rt.Atomic(body); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := f.rt.Atomic(body); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("disabled-tracer transaction allocates %.1f objects, want 0", avg)
	}
}

// TestTraceEventLifecycle checks a single committed read-write transaction
// emits the expected event sequence with object identity and versions.
func TestTraceEventLifecycle(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	tr := trace.New(trace.Config{ShardCapacity: 128, Shards: 1})
	f.rt.SetTracer(tr)
	o := f.newCell()
	if err := f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, 1, tx.Read(o, 0)+7)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	var kinds []trace.Kind
	for _, ev := range evs {
		kinds = append(kinds, ev.Kind)
	}
	want := []trace.Kind{trace.EvBegin, trace.EvRead, trace.EvLockAcquire, trace.EvWrite, trace.EvCommit}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v (sequence %v)", i, kinds[i], want[i], kinds)
		}
	}
	ref := uint64(o.Ref())
	if evs[1].Obj != ref || evs[1].Slot != 0 {
		t.Errorf("read event = %+v, want obj %d slot 0", evs[1], ref)
	}
	if evs[2].Obj != ref || evs[2].Ver != 1 {
		t.Errorf("acquire event = %+v, want obj %d at version 1", evs[2], ref)
	}
	if evs[3].Obj != ref || evs[3].Slot != 1 {
		t.Errorf("write event = %+v, want obj %d slot 1", evs[3], ref)
	}
	if tr.CommitLatency().Count() != 1 {
		t.Errorf("commit latency observations = %d, want 1", tr.CommitLatency().Count())
	}
	id := evs[0].Txn
	for i, ev := range evs {
		if ev.Txn != id {
			t.Errorf("event %d txn = %d, want %d", i, ev.Txn, id)
		}
	}
}

// TestTraceNoEventLossParallel runs contention-free transactions from many
// goroutines with tracing enabled (under -race in CI) and checks that every
// commit and begin is present in the retained history — the ring has
// capacity for all of them, so none may be lost.
func TestTraceNoEventLossParallel(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	const goroutines = 8
	const iters = 150
	// 5 events per txn (begin/read/acquire/write/commit) and the hint-based
	// shard choice may land every goroutine on one shard: size each shard
	// for the full stream.
	tr := trace.New(trace.Config{ShardCapacity: goroutines * iters * 5, Shards: 8})
	f.rt.SetTracer(tr)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		o := f.newCell()
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
	if _, dropped := tr.Recorded(); dropped != 0 {
		t.Fatalf("dropped %d events despite sufficient capacity", dropped)
	}
	var begins, commits int
	perTxn := make(map[uint64]int)
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case trace.EvBegin:
			begins++
		case trace.EvCommit:
			commits++
			perTxn[ev.Txn]++
		}
	}
	const total = goroutines * iters
	if commits != total || begins < total {
		t.Errorf("begins/commits = %d/%d, want >=%d/%d", begins, commits, total, total)
	}
	for id, n := range perTxn {
		if n != 1 {
			t.Errorf("txn %d committed %d times in the trace", id, n)
		}
	}
	if got := tr.Count(trace.EvCommit); got != int64(commits) {
		t.Errorf("Count(commit) = %d, events show %d", got, commits)
	}
}

// TestHotspotAttributionSkewedWrites drives a deterministic conflict on one
// object among many decoys and checks the tracer blames exactly that
// object: the acceptance criterion for conflict attribution.
func TestHotspotAttributionSkewedWrites(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	tr := trace.New(trace.Config{ShardCapacity: 4096})
	f.rt.SetTracer(tr)

	hot := f.newCell()
	colds := make([]uint64, 0, 8)
	for i := 0; i < 8; i++ {
		c := f.newCell()
		colds = append(colds, uint64(c.Ref()))
		// Touch the decoys in committed transactions so they appear in the
		// trace but never in the hotspot table.
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(c, 0, 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	const conflicts = 5
	for i := 0; i < conflicts; i++ {
		attempt := 0
		err := f.rt.Atomic(func(tx stmapi.Txn) error {
			attempt++
			_ = tx.Read(hot, 0)
			if attempt == 1 {
				// A competing committed write moves hot's version while we
				// hold it in our read set...
				done := make(chan error, 1)
				go func() {
					done <- f.rt.Atomic(func(tx2 stmapi.Txn) error {
						tx2.Write(hot, 0, tx2.Read(hot, 0)+1)
						return nil
					})
				}()
				if err := <-done; err != nil {
					t.Error(err)
				}
				// ...so re-reading it dooms this attempt, blaming hot.
				_ = tx.Read(hot, 0)
				t.Error("doomed transaction kept running after stale read")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	top := tr.Hot().Top(5)
	if len(top) == 0 {
		t.Fatal("no hotspots recorded")
	}
	if top[0].Obj != uint64(hot.Ref()) {
		t.Fatalf("top hotspot = obj %d, want the hot object %d (top: %+v)", top[0].Obj, hot.Ref(), top)
	}
	if top[0].Aborts != conflicts {
		t.Errorf("hot aborts = %d, want %d", top[0].Aborts, conflicts)
	}
	for _, e := range top[1:] {
		for _, c := range colds {
			if e.Obj == c && (e.Aborts > 0 || e.Conflicts > 0) {
				t.Errorf("cold object %d charged with %d aborts / %d conflicts", c, e.Aborts, e.Conflicts)
			}
		}
	}
	if got := tr.Count(trace.EvAbort); got != conflicts {
		t.Errorf("abort events = %d, want %d", got, conflicts)
	}
	if tr.AbortGap().Count() != conflicts {
		t.Errorf("abort-to-retry gaps observed = %d, want %d", tr.AbortGap().Count(), conflicts)
	}
}

// TestTraceRetryAndQuiescence covers the retry event and the quiescence
// wait histogram.
func TestTraceRetryAndQuiescence(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{Quiescence: true})
	tr := trace.New(trace.Config{ShardCapacity: 1024})
	f.rt.SetTracer(tr)
	o := f.newCell()

	started := make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		done <- f.rt.Atomic(func(tx stmapi.Txn) error {
			v := tx.Read(o, 0)
			if v == 0 {
				once.Do(func() { close(started) })
				tx.Retry()
			}
			return nil
		})
	}()
	<-started
	if err := f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, 0, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := tr.Count(trace.EvRetry); got < 1 {
		t.Errorf("retry events = %d, want >= 1", got)
	}
	if tr.QuiesceWait().Count() < 1 {
		t.Errorf("quiescence waits observed = %d, want >= 1", tr.QuiesceWait().Count())
	}
}

// TestSetTracerMidstream checks installation/removal: transactions begun
// after SetTracer(nil) emit nothing.
func TestSetTracerMidstream(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	tr := trace.New(trace.Config{ShardCapacity: 64})
	o := f.newCell()
	inc := func(tx stmapi.Txn) error { tx.Write(o, 0, tx.Read(o, 0)+1); return nil }

	if err := f.rt.Atomic(inc); err != nil {
		t.Fatal(err)
	}
	if got, _ := tr.Recorded(); got != 0 {
		t.Fatalf("events before install = %d", got)
	}
	f.rt.SetTracer(tr)
	if err := f.rt.Atomic(inc); err != nil {
		t.Fatal(err)
	}
	after1, _ := tr.Recorded()
	if after1 == 0 {
		t.Fatal("no events after install")
	}
	f.rt.SetTracer(nil)
	if err := f.rt.Atomic(inc); err != nil {
		t.Fatal(err)
	}
	if after2, _ := tr.Recorded(); after2 != after1 {
		t.Errorf("events grew from %d to %d after removal", after1, after2)
	}
}

func TestStatsSnapshot(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
	for i := 0; i < 3; i++ {
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, tx.Read(o, 0)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	_ = f.rt.Atomic(func(tx stmapi.Txn) error { return errAborted })
	s := f.rt.Stats()
	if s.Commits != 3 || s.Aborts != 1 || s.Starts != 4 {
		t.Errorf("snapshot = %+v, want 4 starts, 3 commits, 1 abort", s)
	}
	if s.TxnReads != 3 || s.TxnWrites != 3 {
		t.Errorf("snapshot accesses = %+v", s)
	}
	if s.Commits != f.rt.Counters.Commits.Load() {
		t.Errorf("snapshot disagrees with Load()")
	}
}
