package txn_test

// The kernel's promises, checked once over the registered runtimes, one
// subtest per runtime: here the isolation regressions for the validation the
// kernel does for every runtime (the write-skew probe for the commit fast
// path, the deterministic interleaving for snapshot extension, the walk-mode
// counters), the quiescence grace period, orphan reclamation, and that a heap
// does not keep its runtimes alive; beside them the basic commit, abort,
// restart and retry contract (commit_test.go), the commit clock
// (clock_test.go), cancellation (ctx_test.go), fault injection
// (faultinject_test.go), granularity (granularity_test.go), the descriptor
// pool and statistics (hotpath_test.go), contention policies
// (policy_test.go), recovery and irrevocability (recovery_test.go) and the
// tracer (trace_test.go). A row states what each runtime must do where they
// differ. What names a single runtime's protocol structure (eager's undo
// log, lazy's write-back, mvstm's chains, gate and watermark) is tested in
// that runtime's package. Run under -race in CI.

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro/internal/causal"
	"repro/internal/faultinject"
	"repro/internal/lazystm"
	"repro/internal/mvstm"
	"repro/internal/objmodel"
	"repro/internal/stm"
	"repro/internal/stmapi"
	"repro/internal/strong"
	"repro/internal/trace"
	"repro/internal/txn"
	"repro/internal/txrec"
)

// fixture is a runtime on a fresh heap with a two-slot cell class.
type fixture struct {
	rt  stmapi.Runtime
	cls *objmodel.Class
}

// newFixture constructs the runtime registered under name, with cfg, on a
// fresh heap.
func newFixture(t *testing.T, name string, cfg stmapi.CommonConfig) fixture {
	t.Helper()
	heap := objmodel.NewHeap()
	rt, err := stmapi.New(name, heap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cls := heap.MustDefineClass(objmodel.ClassSpec{Name: "Cell", Fields: []objmodel.Field{{Name: "f"}, {Name: "g"}}})
	return fixture{rt, cls}
}

// cell allocates a cell on the fixture's heap.
func (f fixture) cell() *objmodel.Object { return f.rt.Heap().New(f.cls) }

// write commits a transaction of its own storing v to o's slot.
func (f fixture) write(o *objmodel.Object, slot int, v uint64) error {
	return f.rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(o, slot, v)
		return nil
	})
}

// forEachRuntime runs check as one subtest per registered runtime, named
// after it.
func forEachRuntime(t *testing.T, check func(t *testing.T, name string)) {
	for _, name := range stmapi.Runtimes() {
		t.Run(name, func(t *testing.T) { check(t, name) })
	}
}

// TestWriteSkew runs the classic probe, T1: if b == 0 { a = 1 } against
// T2: if a == 0 { b = 1 }, for a bounded number of rounds. Any serial order
// leaves exactly one of the two cells set; both set is write skew, the
// anomaly that separates snapshot isolation from serializability. The
// validating runtimes promise opacity and must show none in either
// validation mode (the commit-clock fast path used to admit it: two
// committers could both pass the clock compare before either took its write
// version). The multi-version runtime is snapshot-isolated and admits it by
// design, so its count is reported, not judged.
func TestWriteSkew(t *testing.T) {
	rounds := 20000
	if testing.Short() {
		rounds = 2000
	}
	for _, name := range stmapi.Runtimes() {
		for _, walk := range []bool{false, true} {
			mode := "clock"
			if walk {
				mode = "walk"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				f := newFixture(t, name, stmapi.CommonConfig{NoCommitClock: walk})
				rt, a, b := f.rt, f.cell(), f.cell()
				probe := func(mine, other *objmodel.Object) func(stmapi.Txn) error {
					return func(tx stmapi.Txn) error {
						if tx.Read(other, 0) == 0 {
							tx.Write(mine, 0, 1)
						}
						return nil
					}
				}
				reset := func(tx stmapi.Txn) error {
					tx.Write(a, 0, 0)
					tx.Write(b, 0, 0)
					return nil
				}
				// Two goroutines in lockstep: arrived counts the probes done,
				// cleared the rounds whose cells have been checked and reset.
				var arrived, cleared atomic.Int64
				skews := 0
				var wg sync.WaitGroup
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						body := probe(a, b)
						if g == 1 {
							body = probe(b, a)
						}
						for r := 1; r <= rounds; r++ {
							if err := rt.Atomic(body); err != nil {
								t.Error(err)
								return
							}
							arrived.Add(1)
							if g == 1 {
								for cleared.Load() < int64(r) {
									runtime.Gosched()
								}
								continue
							}
							for arrived.Load() < int64(2*r) {
								runtime.Gosched()
							}
							if a.LoadSlot(0) == 1 && b.LoadSlot(0) == 1 {
								skews++
							}
							if err := rt.Atomic(reset); err != nil {
								t.Error(err)
								return
							}
							cleared.Store(int64(r))
						}
					}()
				}
				wg.Wait()
				switch {
				case name == "mvstm":
					t.Logf("%d write skews in %d rounds: admitted, the runtime is snapshot-isolated", skews, rounds)
				case skews != 0:
					t.Errorf("%d write skews in %d rounds on a runtime that claims opacity", skews, rounds)
				}
			})
		}
	}
}

// TestExtensionCoversTriggeringRead drives the one interleaving snapshot
// extension used to get wrong, deterministically, through the tracer's
// synchronous sink. T reads o at a version above its snapshot, which
// extends the snapshot; between T's sample of o and the fresh clock value
// the extension adopts, W2 commits to o and q (the sink runs it at the
// extension's trace point). The sampled value is then stale but covered by
// neither the extension's walk — o is not in the read set yet — nor the new
// snapshot. T must not see q from W2 alongside o from before W2, and its
// increment of o must not overwrite W2's (on the lazy runtime it did: the
// commit fast path accepted the stale entry).
func TestExtensionCoversTriggeringRead(t *testing.T) {
	for _, name := range []string{"eager", "lazy"} {
		t.Run(name, func(t *testing.T) {
			f := newFixture(t, name, stmapi.CommonConfig{})
			rt, o, q := f.rt, f.cell(), f.cell()
			write := func(v uint64) func(stmapi.Txn) error {
				return func(tx stmapi.Txn) error {
					tx.Write(o, 0, v)
					tx.Write(q, 0, v)
					return nil
				}
			}
			tr := trace.New(trace.Config{Shards: 1, ShardCapacity: 64})
			fired := false
			tr.SetSink(trace.SinkFunc(func(ev trace.Event) {
				if ev.Kind == trace.EvExtend && ev.Obj == uint64(o.Ref()) && !fired {
					fired = true
					if err := rt.Atomic(write(100)); err != nil { // W2
						t.Error(err)
					}
				}
			}))
			rt.SetTracer(tr)
			attempts := 0
			err := rt.Atomic(func(tx stmapi.Txn) error { // T
				if attempts++; attempts == 1 {
					// W1 commits after T's snapshot, so T's read of o extends.
					if err := rt.Atomic(write(1)); err != nil {
						return err
					}
				}
				vo, vq := tx.Read(o, 0), tx.Read(q, 0)
				if vo != vq {
					t.Errorf("attempt %d read o = %d with q = %d: not a snapshot", attempts, vo, vq)
				}
				tx.Write(o, 0, vo+1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !fired {
				t.Fatal("the read never extended the snapshot; the interleaving was not exercised")
			}
			if got := o.LoadSlot(0); got != 101 {
				t.Errorf("o = %d, want 101: W2's update was lost", got)
			}
		})
	}
}

// TestStaleReadAcrossNTRelease is the probe for what a non-transactional
// write barrier owes the commit clock (strong.Barriers releases without
// stepping it when the object's version is above it). Two goroutines run
// T: q = o as a transaction; a non-transactional thread writes o = i for
// rising i and reads q after each write. A read that differs from the one
// before it is the commit of a T serialized after that earlier read, and so
// after the write before it, of j say; a value below j there is an o from
// before that write, which T read, kept through the write and committed on
// the clock compare: a cycle (Khyzha et al., arXiv 1801.04249: a TL2 clock
// beside non-transactional code). T dwells between its read and its write so
// that writes of o land inside it. Bounded by time; a barrier that never steps
// the clock shows thousands of violations in that time (strong's clock tests
// hold the interleavings too narrow to meet this way).
func TestStaleReadAcrossNTRelease(t *testing.T) {
	d := 2 * time.Second
	if testing.Short() {
		d = 500 * time.Millisecond
	}
	for _, name := range []string{"eager", "lazy"} {
		t.Run(name, func(t *testing.T) {
			f := newFixture(t, name, stmapi.CommonConfig{})
			rt, o, q := f.rt, f.cell(), f.cell()
			bar := strong.New(rt.Heap(), false)
			// dwell spins without touching o's or q's record.
			dwell := func(n int) {
				for ; n > 0; n-- {
					_ = q.LoadSlot(1)
				}
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						if err := rt.Atomic(func(tx stmapi.Txn) error {
							v := tx.Read(o, 0)
							dwell(300)
							tx.Write(q, 0, v)
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			var i, prev, prevI, moved, stale uint64
			for deadline := time.Now().Add(d); time.Now().Before(deadline); {
				for k := 0; k < 256; k++ {
					i++
					bar.Write(o, 0, i)
					r := bar.Read(q, 0)
					if r != prev {
						moved++
						if r < prevI {
							stale++
						}
					}
					prev, prevI = r, i
					dwell(300) // leave the transactions room to get their read of o in
				}
			}
			stop.Store(true)
			wg.Wait()
			t.Logf("%d non-transactional writes, %d of them with a commit since the one before", i, moved)
			if stale != 0 {
				t.Errorf("%d transactions serialized after a non-transactional write committed a value from before it (%d writes)", stale, i)
			}
		})
	}
}

// TestNoCommitClockWalks: with NoCommitClock every validation is a full
// read-set walk and the clock never advances; the multi-version runtime
// ignores the knob (the clock is what stamps its versions).
func TestNoCommitClockWalks(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{NoCommitClock: true})
		rt, o := f.rt, f.cell()
		const n = 10
		for i := 0; i < n; i++ {
			if err := rt.Atomic(func(tx stmapi.Txn) error {
				tx.Write(o, 0, tx.Read(o, 0)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		s := rt.Stats()
		if name == "mvstm" {
			if s.ClockAdvances != n {
				t.Errorf("clock advances = %d, want %d", s.ClockAdvances, n)
			}
			return
		}
		if s.FastpathValidations != 0 || s.FallbackWalks != n || s.ClockAdvances != 0 {
			t.Errorf("fastpath %d, walks %d, clock advances %d; want 0, %d, 0 in walk mode",
				s.FastpathValidations, s.FallbackWalks, s.ClockAdvances, n)
		}
	})
}

// TestHeapDoesNotRetainRuntimes: a heap may outlive the runtimes built on it
// (a benchmark or a test builds several on one), so nothing the heap holds,
// such as an allocation observer, may reach back into a runtime. Each of
// eight runtimes commits once and is dropped; two collections must free all
// of them.
func TestHeapDoesNotRetainRuntimes(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		h := objmodel.NewHeap()
		cls := h.MustDefineClass(objmodel.ClassSpec{Name: "Cell", Fields: []objmodel.Field{{Name: "v"}}})
		o := h.New(cls)
		kernels := make([]weak.Pointer[txn.Kernel], 8)
		for i := range kernels {
			rt, err := stmapi.New(name, h, stmapi.CommonConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := rt.Atomic(func(tx stmapi.Txn) error {
				tx.Write(o, 0, tx.Read(o, 0)+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			kernels[i] = weak.Make(kernelOf(rt))
		}
		runtime.GC()
		runtime.GC()
		live := 0
		for _, k := range kernels {
			if k.Value() != nil {
				live++
			}
		}
		if live != 0 {
			t.Errorf("%d of %d runtimes still live after two collections with only their heap reachable", live, len(kernels))
		}
		runtime.KeepAlive(h)
	})
}

// TestIrrevocableOrphanPastCommitPointFreesToken: an irrevocable transaction
// whose thread dies past its commit point is a commit, and it dies holding
// the irrevocable token. The next irrevocable transaction reaps it inline
// while it waits for the token, and on mvstm every writer (its commit gate
// waits out a token holder) does too; either would otherwise wait forever.
// The reap surrenders the token.
func TestIrrevocableOrphanPastCommitPointFreesToken(t *testing.T) {
	for _, name := range stmapi.Runtimes() {
		for _, p := range []faultinject.Point{faultinject.PostCommitPoint, faultinject.PreRelease} {
			t.Run(name+"/"+p.String(), func(t *testing.T) {
				f := newFixture(t, name, stmapi.CommonConfig{})
				rt, o := f.rt, f.cell()
				write := func(v uint64) func(stmapi.Txn) error {
					return func(tx stmapi.Txn) error { tx.Write(o, 0, v); return nil }
				}
				rt.SetInjector(faultinject.New(1, faultinject.Rule{Point: p, Action: faultinject.Orphan}))
				var id uint64
				died := make(chan any, 1)
				go func() {
					defer func() { died <- recover() }()
					_ = rt.AtomicIrrevocable(func(tx stmapi.Txn) error {
						id = tx.ID()
						return write(1)(tx)
					})
				}()
				if oe, ok := (<-died).(faultinject.OrphanError); !ok || oe.Point != p {
					t.Fatalf("the irrevocable commit did not die at %v", p)
				}
				rt.SetInjector(nil)
				if holder := kernelOf(rt).IrrevocableHolder(); holder != id {
					t.Fatalf("token holder %d, want the orphan %d", holder, id)
				}
				for _, next := range []struct {
					kind   string
					atomic func(func(stmapi.Txn) error) error
				}{{"irrevocable", rt.AtomicIrrevocable}, {"plain", rt.Atomic}} {
					done := make(chan error, 1)
					go func() { done <- next.atomic(write(2)) }()
					select {
					case err := <-done:
						if err != nil {
							t.Fatal(err)
						}
					case <-time.After(2 * time.Second):
						t.Fatalf("the next %s writer stalled behind the dead token holder", next.kind)
					}
				}
				if holder := kernelOf(rt).IrrevocableHolder(); holder != 0 {
					t.Errorf("the token is still held by %d", holder)
				}
				if n := rt.Stats().ReaperSteals; n != 1 {
					t.Errorf("ReaperSteals = %d, want 1", n)
				}
				if got := o.LoadSlot(0); got != 2 {
					t.Errorf("slot 0 = %d, want 2", got)
				}
			})
		}
	}
}

// kernelOf returns the kernel a runtime embeds: every registered runtime is
// a pointer to a struct with an embedded txn.Kernel.
func kernelOf(rt stmapi.Runtime) *txn.Kernel {
	return reflect.ValueOf(rt).Elem().FieldByName("Kernel").Addr().Interface().(*txn.Kernel)
}

// constructors are the runtime packages' own New, by registry name.
var constructors = map[string]func(*objmodel.Heap, stmapi.CommonConfig) stmapi.Runtime{
	"eager": func(h *objmodel.Heap, cfg stmapi.CommonConfig) stmapi.Runtime { return stm.New(h, cfg) },
	"lazy":  func(h *objmodel.Heap, cfg stmapi.CommonConfig) stmapi.Runtime { return lazystm.New(h, cfg) },
	"mvstm": func(h *objmodel.Heap, cfg stmapi.CommonConfig) stmapi.Runtime { return mvstm.New(h, cfg) },
}

// TestRuntimeCapabilities pins what drivers probe a runtime for. A runtime
// is its own driver view, so a capability gained or lost through embedding
// would otherwise change a driver's path silently: the durable store, for
// one, refuses a runtime that is not a DurableRuntime, and a driver reading
// through AtomicRead finds it on mvstm only.
func TestRuntimeCapabilities(t *testing.T) {
	h := objmodel.NewHeap()
	names := stmapi.Runtimes()
	if len(names) != len(constructors) {
		t.Fatalf("registered runtimes %v, want the %d this test knows", names, len(constructors))
	}
	if _, err := stmapi.New("no-such-runtime", h, stmapi.CommonConfig{}); err == nil {
		t.Error("an unknown runtime name did not error")
	}
	for _, name := range names {
		rt, err := stmapi.New(name, h, stmapi.CommonConfig{})
		if err != nil {
			t.Fatal(err)
		}
		direct := constructors[name](h, stmapi.CommonConfig{})
		if got, want := reflect.TypeOf(rt), reflect.TypeOf(direct); got != want {
			t.Errorf("%s: stmapi.New returns %v, the package's New %v", name, got, want)
		}
		if _, ok := rt.(stmapi.DurableRuntime); !ok {
			t.Errorf("%s: not an stmapi.DurableRuntime", name)
		}
		if _, ro := rt.(stmapi.ReadOnlyRuntime); ro != (name == "mvstm") {
			t.Errorf("%s: ReadOnlyRuntime %v, want %v", name, ro, name == "mvstm")
		}
	}
}

// TestQuiescenceIsAGracePeriod: under Quiescence a commit returns only once
// every attempt in flight when it committed has ended (Section 3.4), on every
// runtime alike: one parked in its body, and on a deferred-update runtime one
// parked past its commit point, whose write-back is then in memory. A deadline
// abandons the wait, not the commit, and stalls nothing after it; an orphan in
// flight, in its body or in its commit window, is reaped by the waiting
// committer itself; with Quiescence off nobody waits.
func TestQuiescenceIsAGracePeriod(t *testing.T) {
	where := map[bool]string{false: "body", true: "commit window"}
	for _, name := range stmapi.Runtimes() {
		windows := []bool{false, true}
		if name == "eager" {
			windows = windows[:1] // it writes in place: no commit window to park in
		}
		for _, window := range windows {
			t.Run(name+"/waits for an attempt parked in its "+where[window], func(t *testing.T) {
				f := newFixture(t, name, stmapi.CommonConfig{Quiescence: true})
				x, y := f.cell(), f.cell()
				release, parked := park(f, x, window)
				committed := commitAsync(f, y, 1)
				// The commit counts before its wait, so once it has counted the
				// wait has begun; give it a moment to end (wrongly).
				waitFor(t, "the committer to commit", func() bool { return f.rt.Stats().Commits > 0 })
				select {
				case err := <-committed:
					t.Fatalf("commit returned (err %v) with an attempt in flight", err)
				case <-time.After(20 * time.Millisecond):
				}
				release()
				within(t, committed, "commit still waiting after the parked attempt ended")
				if window && x.LoadSlot(0) != 1 {
					t.Error("the wait ended before the parked commit's write-back")
				}
				within(t, parked, "the parked transaction did not finish")
			})
		}
		t.Run(name+"/a deadline abandons the wait, not the commit", func(t *testing.T) {
			for _, window := range windows {
				f := newFixture(t, name, stmapi.CommonConfig{Quiescence: true})
				x, y, z := f.cell(), f.cell(), f.cell()
				release, parked := park(f, x, window)
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
				err := f.rt.AtomicCtx(ctx, func(tx stmapi.Txn) error {
					tx.Write(y, 0, 2)
					return nil
				})
				cancel()
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("parked in its %s: err = %v, want context.DeadlineExceeded", where[window], err)
				}
				if got, n := y.LoadSlot(0), f.rt.Stats().Commits; got != 2 || n != 1 {
					t.Fatalf("parked in its %s: y = %d after %d commits, want 2 after 1: the commit is applied whether or not it waited", where[window], got, n)
				}
				release()
				within(t, parked, "the parked transaction did not finish")
				within(t, commitAsync(f, z, 3), "a commit after the abandoned wait stalled")
			}
		})
		t.Run(name+"/reaps an orphan in flight inline", func(t *testing.T) {
			// Dead before its commit point the orphan is rolled back; dead
			// in the commit window, which eager does not have, its write
			// stands.
			deaths := []struct {
				p    faultinject.Point
				want uint64
			}{{faultinject.PostAcquire, 0}, {faultinject.PostCommitPoint, 9}}
			if name == "eager" {
				deaths = deaths[:1]
			}
			for _, d := range deaths {
				f := newFixture(t, name, stmapi.CommonConfig{Quiescence: true})
				x, y := f.cell(), f.cell()
				orphan(t, f, x, d.p)
				within(t, commitAsync(f, y, 1), "commit stalled on an orphan dead at "+d.p.String()+" with no reaper running")
				if w := x.Rec.Load(); !txrec.IsShared(w) || x.LoadSlot(0) != d.want {
					t.Errorf("%v: orphan's record %#x, slot %d: want Shared holding %d", d.p, w, x.LoadSlot(0), d.want)
				}
				if n := f.rt.Stats().ReaperSteals; n != 1 {
					t.Errorf("%v: ReaperSteals = %d, want 1", d.p, n)
				}
			}
		})
		t.Run(name+"/without Quiescence nobody waits", func(t *testing.T) {
			f := newFixture(t, name, stmapi.CommonConfig{})
			y := f.cell()
			for _, window := range windows {
				release, parked := park(f, f.cell(), window)
				within(t, commitAsync(f, y, 1), "commit waited for an attempt parked in its "+where[window])
				release()
				within(t, parked, "the parked transaction did not finish")
			}
		})
	}
}

// TestRetryAfterOwnWriteWaitsForAnotherCommit: a body that writes and then
// retries blocks until another transaction commits. Eager's rollback
// releases the record it wrote with a version bump, and the read set its
// retry waits on holds that record; the rollback moves the entry to the
// post-release version, so the wait does not wake on the transaction's own
// release.
func TestRetryAfterOwnWriteWaitsForAnotherCommit(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		o := f.cell()
		var runs atomic.Int32
		var seen atomic.Uint64
		done := make(chan error, 1)
		go func() {
			done <- f.rt.Atomic(func(tx stmapi.Txn) error {
				runs.Add(1)
				v := tx.Read(o, 0)
				tx.Write(o, 1, 1)
				if v == 0 {
					tx.Retry()
				}
				seen.Store(v)
				return nil
			})
		}()
		waitFor(t, "the body to retry", func() bool { return f.rt.Stats().UserRetries > 0 })
		time.Sleep(20 * time.Millisecond)
		if n := runs.Load(); n != 1 {
			t.Fatalf("body ran %d times with nothing else committed", n)
		}
		within(t, commitAsync(f, o, 5), "the waking commit stalled")
		within(t, done, "the retrying transaction did not wake on another commit")
		if n, v := runs.Load(), seen.Load(); n != 2 || v != 5 {
			t.Errorf("body ran %d times and saw %d, want 2 runs ending at 5", n, v)
		}
	})
}

// orphan runs a transaction writing 9 to o whose goroutine dies at p with
// no cleanup, and returns once it has died.
func orphan(t *testing.T, f fixture, o *objmodel.Object, p faultinject.Point) {
	t.Helper()
	rt := f.rt
	rt.SetInjector(faultinject.New(1, faultinject.Rule{Point: p, Action: faultinject.Orphan, Every: 1}))
	defer rt.SetInjector(nil)
	died := make(chan any, 1)
	go func() {
		defer func() { died <- recover() }()
		_ = rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, 9)
			return nil
		})
	}()
	if r := <-died; r == nil {
		t.Fatal("the transaction did not die")
	} else if _, ok := r.(faultinject.OrphanError); !ok {
		panic(r)
	}
}

// TestReapDeadReclaimsOnlyDead: a ReapDead sweep reclaims the orphan, exactly
// once, and leaves a live transaction parked in its body alone, which then
// commits.
func TestReapDeadReclaimsOnlyDead(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		rt, x, y := f.rt, f.cell(), f.cell()
		release, parked := park(f, x, false)
		orphan(t, f, y, faultinject.PostAcquire)
		if n := rt.ReapDead(); n != 1 {
			t.Fatalf("first sweep reclaimed %d, want 1", n)
		}
		if n := rt.ReapDead(); n != 0 {
			t.Fatalf("second sweep reclaimed %d, want 0", n)
		}
		if w := y.Rec.Load(); !txrec.IsShared(w) || y.LoadSlot(0) != 0 {
			t.Errorf("orphan's record %#x, slot %d: want Shared and rolled back", w, y.LoadSlot(0))
		}
		if n := rt.ActiveTransactions(); n != 1 {
			t.Errorf("active transactions = %d, want the parked one", n)
		}
		release()
		within(t, parked, "the live transaction did not commit after the sweep")
		if x.LoadSlot(0) != 1 {
			t.Error("the live transaction's write is missing")
		}
	})
}

// TestInlineStealNamesReclaimer: a writer that finds a dead owner on its
// object reclaims it inline, and the steal event names that writer's attempt
// and the object, so the causal recorder draws a stolen-from edge to it.
func TestInlineStealNamesReclaimer(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		rt, o := f.rt, f.cell()
		rec := causal.NewRecorder(causal.Config{})
		tr := trace.New(trace.Config{Shards: 1, ShardCapacity: 256})
		tr.SetSink(rec)
		rt.SetTracer(tr)
		orphan(t, f, o, faultinject.PreValidate)
		var waiter causal.AttemptRef
		done := make(chan error, 1)
		go func() {
			done <- rt.Atomic(func(tx stmapi.Txn) error {
				waiter = causal.AttemptRef{Txn: tx.ID(), N: tx.Attempt()}
				tx.Write(o, 0, 5)
				return nil
			})
		}()
		within(t, done, "the waiter did not reclaim the dead owner")
		var stolen []causal.Edge
		for _, e := range rec.Graph().Edges {
			if e.Kind == causal.StolenFrom {
				stolen = append(stolen, e)
			}
		}
		if len(stolen) != 1 {
			t.Fatalf("stolen-from edges = %+v, want exactly one", stolen)
		}
		if e := stolen[0]; e.To != waiter || e.Obj != uint64(o.Ref()) {
			t.Errorf("stolen-from edge To:%+v Obj:%d, want To:%+v Obj:%d", e.To, e.Obj, waiter, o.Ref())
		}
		if o.LoadSlot(0) != 5 {
			t.Errorf("slot 0 = %d, want the waiter's 5", o.LoadSlot(0))
		}
	})
}

// park starts a transaction writing 1 to o that stops in its body or, with
// window, just past its commit point, and returns once it has stopped:
// release lets it go on, and parked delivers its Atomic's result.
func park(f fixture, o *objmodel.Object, window bool) (release func(), parked <-chan error) {
	stopped, resume := make(chan struct{}), make(chan struct{})
	var once atomic.Bool
	stop := func() {
		if once.CompareAndSwap(false, true) {
			close(stopped)
			<-resume
		}
	}
	if window {
		atCommitPoint(f, stop)
	}
	done := make(chan error, 1)
	go func() {
		done <- f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, 1)
			if !window {
				stop()
			}
			return nil
		})
	}()
	<-stopped
	return func() { close(resume) }, done
}

// atCommitPoint installs a tracer on f's runtime whose synchronous sink
// calls fn, on the committing goroutine, at every commit point
// (trace.EvCommitPoint), before anything is written back.
func atCommitPoint(f fixture, fn func()) {
	tr := trace.New(trace.Config{Shards: 1, ShardCapacity: 64})
	tr.SetSink(trace.SinkFunc(func(ev trace.Event) {
		if ev.Kind == trace.EvCommitPoint {
			fn()
		}
	}))
	f.rt.SetTracer(tr)
}

// commitAsync commits o = v on a goroutine of its own.
func commitAsync(f fixture, o *objmodel.Object, v uint64) <-chan error {
	done := make(chan error, 1)
	go func() { done <- f.write(o, 0, v) }()
	return done
}

// within fails the test with stalled unless done delivers nil in five seconds.
func within(t *testing.T, done <-chan error, stalled string) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal(stalled)
	}
}

// waitFor fails the test with what unless cond holds within five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// accounts allocates n cells on f's heap holding balance each.
func accounts(f fixture, n int, balance uint64) []*objmodel.Object {
	objs := make([]*objmodel.Object, n)
	for i := range objs {
		objs[i] = f.cell()
		objs[i].StoreSlot(0, balance)
	}
	return objs
}

// runTransfers runs goroutines workers, each committing up to n
// transactions that move one unit between two pseudo-random accounts.
func runTransfers(t *testing.T, f fixture, accounts []*objmodel.Object, goroutines, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(rng uint64) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				from, to := accounts[rng%uint64(len(accounts))], accounts[(rng>>8)%uint64(len(accounts))]
				if from == to {
					continue
				}
				if err := f.rt.Atomic(func(tx stmapi.Txn) error {
					a, b := tx.Read(from, 0), tx.Read(to, 0)
					tx.Write(from, 0, a-1)
					tx.Write(to, 0, b+1)
					return nil
				}); err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(uint64(g+1)*2862933555777941757 + 3037000493)
	}
	wg.Wait()
}

// conserved fails the test unless the accounts hold n·balance between them,
// every record is Shared and no transaction is active.
func conserved(t *testing.T, f fixture, accounts []*objmodel.Object, balance uint64) {
	t.Helper()
	var sum uint64
	for i, o := range accounts {
		if w := o.Rec.Load(); !txrec.IsShared(w) {
			t.Errorf("account %d record %#x not back to Shared", i, w)
		}
		sum += o.LoadSlot(0)
	}
	if want := uint64(len(accounts)) * balance; sum != want {
		t.Errorf("total balance %d, want %d", sum, want)
	}
	if n := f.rt.ActiveTransactions(); n != 0 {
		t.Errorf("active transactions = %d, want 0", n)
	}
}
