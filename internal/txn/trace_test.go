package txn_test

// The tracer on every runtime: the disabled path allocates nothing, a
// transaction's events come in its protocol's order, concurrent tracing
// loses no event the rings have room for, conflict attribution names the
// object that caused the aborts, and the retry, quiescence and statistics
// accounting. Run under -race in CI.

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
	"repro/internal/txn"
)

// TestDisabledTracerAllocFree: with no tracer installed, including after
// one was installed and removed, a committed read-write transaction
// allocates nothing. Eager's count is exact under the race detector too;
// lazy's and mvstm's are only without it.
func TestDisabledTracerAllocFree(t *testing.T) {
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
		allocFree(t, f.rt, body, "never traced")
		tr := trace.New(trace.Config{ShardCapacity: 64})
		f.rt.SetTracer(tr)
		if err := f.rt.Atomic(body); err != nil {
			t.Fatal(err)
		}
		if n, _ := tr.Recorded(); n == 0 {
			t.Fatal("the tracer recorded nothing while installed")
		}
		f.rt.SetTracer(nil)
		allocFree(t, f.rt, body, "tracer removed")
	})
}

// TestTraceEventLifecycle: one committed read-write transaction emits its
// protocol's events, all under its ID. Eager acquires the record at the
// write; lazy and mvstm acquire at commit. Every runtime passes the commit
// point stamped with the write version, and lazy and mvstm then write the
// one slot back, stamped with it too.
func TestTraceEventLifecycle(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		tr := trace.New(trace.Config{ShardCapacity: 128, Shards: 1})
		var k *txn.Txn
		var wv uint64
		tr.SetSink(trace.SinkFunc(func(ev trace.Event) {
			if ev.Kind == trace.EvCommitPoint {
				wv = k.WV
			}
		}))
		f.rt.SetTracer(tr)
		o := f.cell()
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			k = tx.(txn.Strategy).Base()
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
		want := []trace.Kind{trace.EvBegin, trace.EvRead, trace.EvWrite, trace.EvLockAcquire,
			trace.EvCommitPoint, trace.EvWriteBack, trace.EvCommit}
		if name == "eager" {
			want = []trace.Kind{trace.EvBegin, trace.EvRead, trace.EvLockAcquire, trace.EvWrite, trace.EvCommitPoint, trace.EvCommit}
		}
		if !slices.Equal(kinds, want) {
			t.Fatalf("events = %v, want %v", kinds, want)
		}
		ref := uint64(o.Ref())
		for i, ev := range evs {
			if ev.Txn != evs[0].Txn {
				t.Errorf("event %d (%v) under txn %d, want %d", i, ev.Kind, ev.Txn, evs[0].Txn)
			}
			switch ev.Kind {
			case trace.EvRead:
				if ev.Obj != ref || ev.Slot != 0 {
					t.Errorf("read %+v, want object %d slot 0", ev, ref)
				}
			case trace.EvWrite:
				if ev.Obj != ref || ev.Slot != 1 {
					t.Errorf("write %+v, want object %d slot 1", ev, ref)
				}
			case trace.EvLockAcquire:
				if ev.Obj != ref || ev.Ver != 1 {
					t.Errorf("acquire %+v, want object %d at version 1", ev, ref)
				}
			case trace.EvCommitPoint, trace.EvWriteBack:
				if wv == 0 || ev.Ver != wv {
					t.Errorf("%v %+v, want the write version %d", ev.Kind, ev, wv)
				}
			}
		}
		if n := tr.CommitLatency().Count(); n != 1 {
			t.Errorf("commit latency observations = %d, want 1", n)
		}
	})
}

// TestTraceNoEventLossParallel: contention-free transactions from eight
// goroutines with tracing on; every shard has room for the whole stream, so
// every begin and commit is retained and each transaction commits once.
func TestTraceNoEventLossParallel(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		const goroutines, iters = 8, 150
		// At most seven events per transaction (lazy's and mvstm's
		// lifecycle), and the shard choice may put every goroutine on one.
		tr := trace.New(trace.Config{ShardCapacity: goroutines * iters * 7, Shards: 8})
		f.rt.SetTracer(tr)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			o := f.cell()
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
			t.Errorf("begins/commits = %d/%d, want >= %d/%d", begins, commits, total, total)
		}
		for id, n := range perTxn {
			if n != 1 {
				t.Errorf("txn %d committed %d times in the trace", id, n)
			}
		}
		if got := tr.Count(trace.EvCommit); got != int64(commits) {
			t.Errorf("Count(commit) = %d, events show %d", got, commits)
		}
	})
}

// TestHotspotAttribution: a body reads hot, writes sink, and writes hot
// after a competing transaction has committed to it, five times, among
// eight decoys written in transactions of their own. Every runtime blames
// hot for all five aborts, whether it finds the conflict at the write
// (eager), at commit validation (lazy) or at first-committer-wins (mvstm),
// and charges neither sink nor a decoy.
func TestHotspotAttribution(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		tr := trace.New(trace.Config{ShardCapacity: 4096})
		f.rt.SetTracer(tr)
		hot, sink := f.cell(), f.cell()
		innocent := map[uint64]bool{uint64(sink.Ref()): true}
		for i := 0; i < 8; i++ {
			c := f.cell()
			innocent[uint64(c.Ref())] = true
			if err := f.write(c, 0, 1); err != nil {
				t.Fatal(err)
			}
		}
		const conflicts = 5
		for i := 0; i < conflicts; i++ {
			attempt := 0
			if err := f.rt.Atomic(func(tx stmapi.Txn) error {
				attempt++
				v := tx.Read(hot, 0)
				tx.Write(sink, 0, v)
				if attempt == 1 {
					within(t, commitAsync(f, hot, v+1), "the competing commit stalled")
				}
				tx.Write(hot, 1, v)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		top := tr.Hot().Top(10)
		if len(top) == 0 {
			t.Fatal("no hotspots recorded")
		}
		if top[0].Obj != uint64(hot.Ref()) || top[0].Aborts != conflicts {
			t.Errorf("top hotspot %+v, want object %d with %d aborts (top %+v)", top[0], hot.Ref(), conflicts, top)
		}
		for _, e := range top {
			if innocent[e.Obj] && (e.Aborts > 0 || e.Conflicts > 0) {
				t.Errorf("object %d charged with %d aborts / %d conflicts", e.Obj, e.Aborts, e.Conflicts)
			}
		}
		if got := tr.Count(trace.EvAbort); got != conflicts {
			t.Errorf("abort events = %d, want %d", got, conflicts)
		}
		if got := tr.AbortGap().Count(); got != conflicts {
			t.Errorf("abort-to-retry gaps observed = %d, want %d", got, conflicts)
		}
	})
}

// TestTraceRetryAndQuiescence: a Retry records its event, and under
// Quiescence the waking commit records its grace-period wait.
func TestTraceRetryAndQuiescence(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{Quiescence: true})
		tr := trace.New(trace.Config{ShardCapacity: 1024})
		f.rt.SetTracer(tr)
		o := f.cell()
		done := make(chan error, 1)
		go func() {
			done <- f.rt.Atomic(func(tx stmapi.Txn) error {
				if tx.Read(o, 0) == 0 {
					tx.Retry()
				}
				return nil
			})
		}()
		waitFor(t, "the body to retry", func() bool { return tr.Count(trace.EvRetry) > 0 })
		within(t, commitAsync(f, o, 1), "the waking commit stalled")
		within(t, done, "the retrying transaction did not wake")
		if n := tr.QuiesceWait().Count(); n < 1 {
			t.Errorf("quiescence waits observed = %d, want >= 1", n)
		}
	})
}

// TestSetTracerMidstream: a tracer records only the transactions that begin
// while it is installed.
func TestSetTracerMidstream(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		tr := trace.New(trace.Config{ShardCapacity: 64})
		o := f.cell()
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
		installed, _ := tr.Recorded()
		if installed == 0 {
			t.Fatal("no events after install")
		}
		f.rt.SetTracer(nil)
		if err := f.rt.Atomic(inc); err != nil {
			t.Fatal(err)
		}
		if after, _ := tr.Recorded(); after != installed {
			t.Errorf("events grew from %d to %d after removal", installed, after)
		}
	})
}

// TestStatsSnapshot: three committed increments and one body that aborts
// with its own error count as four starts, three commits, one abort, three
// reads and three writes.
func TestStatsSnapshot(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		o := f.cell()
		for i := 0; i < 3; i++ {
			if err := f.rt.Atomic(func(tx stmapi.Txn) error {
				tx.Write(o, 0, tx.Read(o, 0)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		_ = f.rt.Atomic(func(stmapi.Txn) error { return errAborted })
		s := f.rt.Stats()
		if s.Starts != 4 || s.Commits != 3 || s.Aborts != 1 {
			t.Errorf("starts/commits/aborts = %d/%d/%d, want 4/3/1", s.Starts, s.Commits, s.Aborts)
		}
		if s.TxnReads != 3 || s.TxnWrites != 3 {
			t.Errorf("reads/writes = %d/%d, want 3/3", s.TxnReads, s.TxnWrites)
		}
	})
}

// TestEveryReadTraced: every transactional read records one trace.EvRead,
// whatever serves it: a private object, a shared one, a slot this
// transaction wrote (buffered, or in place under its own record), and,
// after an irrevocable switch, a read of a record the switch locked and a
// pessimistic first read.
func TestEveryReadTraced(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		heap := f.rt.Heap()
		heap.AllocPrivate = true
		private := f.cell()
		heap.AllocPrivate = false
		x, y, z := f.cell(), f.cell(), f.cell()
		tr := trace.New(trace.Config{Shards: 1, ShardCapacity: 256})
		f.rt.SetTracer(tr)
		var id uint64
		reads := 0
		if err := f.rt.Atomic(func(tx stmapi.Txn) error {
			id, reads = tx.ID(), 0
			read := func(o *objmodel.Object) {
				tx.Read(o, 0)
				reads++
			}
			read(private)
			read(x)
			tx.Write(y, 0, 1)
			read(y)
			tx.BecomeIrrevocable()
			read(x)
			read(x)
			read(z)
			read(y)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		traced := 0
		for _, ev := range tr.Events() {
			if ev.Kind == trace.EvRead && ev.Txn == id {
				traced++
			}
		}
		if traced != reads {
			t.Errorf("%d EvRead events for %d reads", traced, reads)
		}
	})
}
