package txn_test

// The statistics contract on every runtime: a commit's and an abort's counts
// go into the batch of the registry slot the descriptor holds, and reach the
// totals once per 64 flushes of the slot, before the holder blocks, or when
// Stats drains a free slot with its idle sentinel. So Stats is exact when no
// transaction is in flight, misses at most 63 finished Atomics per busy slot
// while some are, shows a commit while its committer waits, and its sentinel
// is invisible to every registry scan.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/stmapi"
)

// TestStatsExactAtQuiescence: workers commit a number of Atomics that is
// not a multiple of the batch size, on cells of their own, with aborts
// injected before validation and user retries that a waker goroutine
// answers by committing to a bell the worker read. Once every goroutine is
// done, every counter equals the tally the test kept.
func TestStatsExactAtQuiescence(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		in := faultinject.New(7, faultinject.Rule{Point: faultinject.PreValidate, Action: faultinject.Abort, Rate: 128})
		f.rt.SetInjector(in)
		const workers, n = 3, 203
		var reads, writes, retries, rings atomic.Int64
		var wg, wakers sync.WaitGroup
		for w := 0; w < workers; w++ {
			o, bell := f.cell(), f.cell()
			ring := make(chan struct{}, 1)
			wakers.Add(1)
			go func() { // commits to the bell once per ring; only it writes the bell
				defer wakers.Done()
				for range ring {
					if err := f.rt.Atomic(func(tx stmapi.Txn) error {
						reads.Add(1)
						writes.Add(1)
						tx.Write(bell, 0, tx.Read(bell, 0)+1)
						return nil
					}); err != nil {
						t.Error(err)
					}
					rings.Add(1)
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(ring)
				asked := uint64(0) // rings asked for so far
				for i := 0; i < n; i++ {
					if err := f.rt.Atomic(func(tx stmapi.Txn) error {
						if i%10 == 9 {
							// Retry until the waker has rung for this
							// iteration; ask once.
							reads.Add(1)
							if tx.Read(bell, 0) < uint64(i/10+1) {
								if asked < uint64(i/10+1) {
									asked++
									ring <- struct{}{}
								}
								retries.Add(1)
								tx.Retry()
							}
						}
						reads.Add(1)
						writes.Add(1)
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
		wakers.Wait()
		injected := in.Fired(faultinject.PreValidate, faultinject.Abort)
		if injected == 0 {
			t.Fatal("no abort injected: the test exercised nothing")
		}
		s := f.rt.Stats()
		commits := int64(workers*n) + rings.Load()
		want := []struct {
			what      string
			got, want int64
		}{
			{"commits", s.Commits, commits},
			{"aborts", s.Aborts, injected + retries.Load()},
			{"starts", s.Starts, commits + injected + retries.Load()},
			{"user retries", s.UserRetries, retries.Load()},
			{"reads", s.TxnReads, reads.Load()},
			{"writes", s.TxnWrites, writes.Load()},
		}
		for _, c := range want {
			if c.got != c.want {
				t.Errorf("%s = %d, want %d", c.what, c.got, c.want)
			}
		}
		if s.Starts != s.Commits+s.Aborts {
			t.Errorf("starts (%d) != commits (%d) + aborts (%d)", s.Starts, s.Commits, s.Aborts)
		}
	})
}

// TestStatsLagBound: while a goroutine is parked inside a body, Stats misses
// at most 63 of the Atomics it finished before, and none once it returns.
func TestStatsLagBound(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		for _, finished := range []int{1, 63, 64, 100, 150} {
			before := f.rt.Stats().Commits
			o := f.cell()
			parked, resume := make(chan struct{}), make(chan struct{})
			done := make(chan error, 1)
			go func() {
				for i := 0; i < finished; i++ {
					if err := f.write(o, 0, uint64(i)); err != nil {
						done <- err
						return
					}
				}
				done <- f.rt.Atomic(func(tx stmapi.Txn) error {
					tx.Write(o, 0, tx.Read(o, 0)+1)
					close(parked)
					<-resume
					return nil
				})
			}()
			select {
			case <-parked:
			case err := <-done:
				t.Fatal(err)
			}
			if missed := int64(finished) - (f.rt.Stats().Commits - before); missed < 0 || missed > 63 {
				t.Errorf("after %d Atomics, with the goroutine parked: Stats misses %d of them, want 0 to 63", finished, missed)
			}
			close(resume)
			within(t, done, "the parked Atomic did not return")
			if got := f.rt.Stats().Commits - before; got != int64(finished)+1 {
				t.Errorf("after %d Atomics and the parked one: commits = %d, want %d", finished, got, finished+1)
			}
		}
	})
}

// TestStatsDrainsPartialBatch: goroutines whose last Atomic leaves their
// slot's batch short of a publish, or exactly at one, have every commit in
// the next Stats once they are done: the batches left partial in free slots
// are drained, and a slot its holder published last is not drained twice.
func TestStatsDrainsPartialBatch(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		for _, row := range []struct{ goroutines, atomics int }{
			{1, 1}, {1, 63}, {1, 64}, {3, 65}, {2, 129}, {4, 128},
		} {
			before := f.rt.Stats().Commits
			var wg sync.WaitGroup
			for g := 0; g < row.goroutines; g++ {
				o := f.cell()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < row.atomics; i++ {
						if err := f.write(o, 0, uint64(i)); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if got, want := f.rt.Stats().Commits-before, int64(row.goroutines*row.atomics); got != want {
				t.Errorf("%d goroutines of %d Atomics each: Stats counts %d commits, want %d", row.goroutines, row.atomics, got, want)
			}
		}
	})
}

// slowSink holds every durability wait until release is closed.
type slowSink struct {
	seq     atomic.Uint64
	release chan struct{}
}

func (s *slowSink) AppendRedo(uint64, uint64, []stmapi.RedoWrite) (uint64, error) {
	return s.seq.Add(1), nil
}

func (s *slowSink) WaitDurable(uint64) error {
	<-s.release
	return nil
}

// TestStatsPublishBeforeWait: a commit held in its quiescence grace period,
// one held in a slow sink's durability wait, and a user retry parked in its
// retry wait all show in Stats before their waits return, though the
// committer or retrier has finished far fewer than 64 Atomics.
func TestStatsPublishBeforeWait(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		t.Run("grace period", func(t *testing.T) {
			f := newFixture(t, name, stmapi.CommonConfig{Quiescence: true})
			inFlight, committed := f.cell(), f.cell()
			release, parked := park(f, inFlight, false)
			done := commitAsync(f, committed, 1)
			waitFor(t, "the commit in its grace period to show in Stats", func() bool { return f.rt.Stats().Commits == 1 })
			select {
			case err := <-done:
				t.Fatalf("the commit returned (%v) before the attempt in flight ended", err)
			default:
			}
			release()
			within(t, parked, "the parked transaction did not commit")
			within(t, done, "the quiescing commit did not return")
		})
		t.Run("durability wait", func(t *testing.T) {
			f := newFixture(t, name, stmapi.CommonConfig{})
			sink := &slowSink{release: make(chan struct{})}
			f.rt.(stmapi.DurableRuntime).SetCommitSink(sink)
			done := commitAsync(f, f.cell(), 1)
			waitFor(t, "the commit in its durability wait to show in Stats", func() bool { return f.rt.Stats().Commits == 1 })
			close(sink.release)
			within(t, done, "the durable commit did not return")
		})
		t.Run("retry wait", func(t *testing.T) {
			f := newFixture(t, name, stmapi.CommonConfig{})
			o, flag := f.cell(), f.cell()
			done := make(chan error, 1)
			go func() {
				for i := 0; i < 5; i++ {
					if err := f.write(o, 0, uint64(i)); err != nil {
						done <- err
						return
					}
				}
				done <- f.rt.Atomic(func(tx stmapi.Txn) error {
					if tx.Read(flag, 0) == 0 {
						tx.Retry()
					}
					return nil
				})
			}()
			waitFor(t, "the retry in its wait to show in Stats", func() bool {
				s := f.rt.Stats()
				return s.UserRetries == 1 && s.Commits == 5
			})
			if err := f.write(flag, 0, 1); err != nil {
				t.Fatal(err)
			}
			within(t, done, "the retry did not wake")
		})
	})
}

// panicSink panics in every append, inside the commit that makes it.
type panicSink struct{}

func (panicSink) AppendRedo(uint64, uint64, []stmapi.RedoWrite) (uint64, error) {
	panic("sink failure")
}

func (panicSink) WaitDurable(uint64) error { return nil }

// TestStatsPanicOutOfCommit: a panic out of a commit (here a sink's) leaves
// its attempt neither committed nor aborted; its counts still reach Stats,
// and the descriptor returns to the pool with nothing unflushed, no record
// held and, on a deferred-update runtime, an empty write set, so the next
// Atomic does not acquire the panicked one's write set again (its record
// stays Exclusive: the next commit would spin on it to its self-abort cap).
func TestStatsPanicOutOfCommit(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		rt := f.rt.(stmapi.DurableRuntime)
		rt.SetCommitSink(panicSink{})
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the sink's panic did not propagate")
				}
			}()
			_ = f.write(f.cell(), 0, 1)
		}()
		rt.SetCommitSink(nil)
		if s := f.rt.Stats(); s.Starts != 1 || s.TxnWrites != 1 || s.Commits != 0 || s.Aborts != 0 {
			t.Errorf("starts/writes/commits/aborts = %d/%d/%d/%d, want 1/1/0/0", s.Starts, s.TxnWrites, s.Commits, s.Aborts)
		}
		start := time.Now()
		_ = f.rt.Atomic(func(tx stmapi.Txn) error {
			k, d := base(tx), deferredOf(tx)
			if n := k.Unflushed(); n != 1 {
				t.Errorf("%d statistics deltas at begin, want begin's 1", n)
			}
			buffered := 0
			if d != nil {
				buffered = len(d.Buf.Ents)
			}
			if k.Owned.Len() != 0 || buffered != 0 {
				t.Errorf("the descriptor after the panic holds %d records and buffers %d writes, want none", k.Owned.Len(), buffered)
			}
			return nil
		})
		if took := time.Since(start); took > 10*time.Millisecond {
			t.Errorf("the Atomic after the panic took %v, want under 10ms", took)
		}
	})
}

// TestStatsSentinelLooksIdle calls Stats in a loop, so that its sentinel sits
// in free registry slots again and again, while quiescing workers commit and
// while nothing runs, and meanwhile runs every other scan: ReapDead reaps
// nothing, no scan counts the sentinel active, findStamp never returns it, no
// committer's grace period waits on it, and the multi-version runtime's scans
// (Kernel.ForEach) never see it: no commit gate waits on it and it pins no
// snapshot below the clock.
func TestStatsSentinelLooksIdle(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{Quiescence: true})
		k := kernelOf(f.rt)
		mv, _ := f.rt.(interface{ Watermark() uint64 })
		var stop atomic.Bool
		var drains sync.WaitGroup
		drains.Add(1)
		go func() {
			defer drains.Done()
			for !stop.Load() {
				f.rt.Stats()
			}
		}()
		scan := func(idle bool) {
			if n := f.rt.ReapDead(); n != 0 {
				t.Errorf("ReapDead reaped %d descriptors", n)
			}
			if tx := k.FindStamp(0); tx != nil {
				t.Errorf("findStamp(0) found a descriptor of status %v", tx.Status())
			}
			if n := f.rt.ActiveTransactions(); idle && n != 0 {
				t.Errorf("%d active transactions while none runs", n)
			}
		}

		// Busy: quiescing committers on cells of their own, every commit a
		// grace-period scan, the other scans beside them.
		const workers, n = 2, 300
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			o := f.cell()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					if err := f.write(o, 0, uint64(i)); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		finished := make(chan error, 1)
		go func() { wg.Wait(); finished <- nil }()
		for busy := true; busy; {
			select {
			case <-finished:
				busy = false
			default:
				scan(false)
			}
		}

		// Idle: nothing but the drain runs between the scans; a commit of
		// the scanning goroutine's own steps the clock for the watermark.
		o, commits := f.cell(), int64(workers*n)
		for i := 0; i < 2000 && !t.Failed(); i++ {
			scan(true)
			if i%20 == 0 {
				gateEmpty(t, f) // an irrevocable switch's gate scan passes the sentinel
				commits++
			}
			if mv != nil && i%20 == 0 {
				if err := f.write(o, 0, uint64(i)); err != nil {
					t.Fatal(err)
				}
				commits++
				if w, c := mv.Watermark(), k.Clock.Load(); w != c {
					t.Errorf("watermark %d below the clock %d with no snapshot live", w, c)
				}
			}
		}
		stop.Store(true)
		drains.Wait()
		if s := f.rt.Stats(); s.Commits != commits || s.Aborts != 0 {
			t.Errorf("commits/aborts = %d/%d, want %d/0", s.Commits, s.Aborts, commits)
		}
	})
}
