package txn_test

// Fault injection on every runtime: every in-memory point fires, and
// injected aborts at each doom site under concurrency keep the invariants
// that make abort safe: money is conserved (no undo entry lost, no buffered
// write leaked), records return to Shared and a quiescent commit never
// hangs on a doomed attempt. An injected death is an orphan; its checks are
// recovery_test.go's and internal/litmus's.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
)

// abortPoints are the sites where an injected Abort exercises the ordinary
// doom and restart machinery: before the commit point, off the abort path.
var abortPoints = []faultinject.Point{faultinject.PreAcquire, faultinject.PostAcquire, faultinject.PreValidate}

// TestEveryFaultPointFires: with a Delay armed on every arrival at every
// in-memory point, one committed write and one write aborted by its body
// reach each point as many times as the kernel's commit protocol says:
// PreValidate, PostCommitPoint and PreRelease once, for the committed
// write, on every runtime; the aborted body never reaches commit. Eager
// acquires at the write, so both transactions pass PreAcquire and
// PostAcquire; lazy and mvstm acquire at commit.
func TestEveryFaultPointFires(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		rules := make([]faultinject.Rule, len(faultinject.Points))
		for i, p := range faultinject.Points {
			rules[i] = faultinject.Rule{Point: p, Action: faultinject.Delay, Every: 1, Sleep: time.Nanosecond}
		}
		in := faultinject.New(1, rules...)
		f.rt.SetInjector(in)
		o := f.cell()
		if err := f.write(o, 0, 1); err != nil {
			t.Fatal(err)
		}
		_ = f.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, 2)
			return errAborted
		})
		want := map[faultinject.Point]int64{
			faultinject.PreAcquire: 1, faultinject.PostAcquire: 1, faultinject.PreValidate: 1,
			faultinject.PostCommitPoint: 1, faultinject.PreRelease: 1,
		}
		if name == "eager" {
			want[faultinject.PreAcquire], want[faultinject.PostAcquire] = 2, 2
		}
		for _, p := range faultinject.Points {
			if got := in.Fired(p, faultinject.Delay); got != want[p] {
				t.Errorf("%v fired %d times, want %d", p, got, want[p])
			}
		}
		if got := o.LoadSlot(0); got != 1 {
			t.Errorf("slot 0 = %d, want the committed 1", got)
		}
	})
}

// TestInjectedAbortsPreserveInvariants: aborts injected at a quarter of the
// arrivals at each abort point, under four concurrent transfer workers.
func TestInjectedAbortsPreserveInvariants(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		for _, p := range abortPoints {
			t.Run(p.String(), func(t *testing.T) {
				f := newFixture(t, name, stmapi.CommonConfig{})
				in := faultinject.New(uint64(p)+1, faultinject.Rule{Point: p, Action: faultinject.Abort, Rate: 256})
				f.rt.SetInjector(in)
				objs := accounts(f, 8, 1000)
				runTransfers(t, f, objs, 4, 300)
				fired := in.Fired(p, faultinject.Abort)
				if fired == 0 {
					t.Fatalf("the injector never fired at %v; the test exercised nothing", p)
				}
				conserved(t, f, objs, 1000)
				if n := f.rt.Stats().Aborts; n < fired {
					t.Errorf("aborts = %d, fewer than the %d injected", n, fired)
				}
			})
		}
	})
}

// TestInjectedAbortsWithQuiescenceNeverHang: with Quiescence on and aborts
// injected at every abort point, the transfers complete (inside the test
// timeout): an aborted attempt is no longer in flight, so a quiescent
// committer never waits on it, not even on one parked in a Retry until the
// transfers are done.
func TestInjectedAbortsWithQuiescenceNeverHang(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{Quiescence: true})
		rules := make([]faultinject.Rule, len(abortPoints))
		for i, p := range abortPoints {
			rules[i] = faultinject.Rule{Point: p, Action: faultinject.Abort, Rate: 128}
		}
		in := faultinject.New(7, rules...)
		f.rt.SetInjector(in)
		flag := f.cell()
		parked := make(chan error, 1)
		go func() {
			parked <- f.rt.Atomic(func(tx stmapi.Txn) error {
				if tx.Read(flag, 0) == 0 {
					tx.Retry()
				}
				return nil
			})
		}()
		waitFor(t, "the retry", func() bool { return f.rt.Stats().UserRetries > 0 })
		objs := accounts(f, 4, 100)
		runTransfers(t, f, objs, 4, 200)
		within(t, commitAsync(f, flag, 1), "the waking commit stalled")
		within(t, parked, "the retrying transaction did not wake")
		if in.TotalFired() == 0 {
			t.Fatal("the injector never fired")
		}
		conserved(t, f, objs, 100)
	})
}

// TestInjectedDelayWidensRaceWindows: a Delay, the litmus programs' way of
// widening a window, neither aborts nor corrupts anything: two workers, each
// on its own pair of accounts so that nothing else can abort them, commit
// every transfer at their first attempt.
func TestInjectedDelayWidensRaceWindows(t *testing.T) {
	forEachRuntime(t, func(t *testing.T, name string) {
		f := newFixture(t, name, stmapi.CommonConfig{})
		in := faultinject.New(3, faultinject.Rule{Point: faultinject.PostAcquire, Action: faultinject.Delay, Every: 4, Sleep: 1})
		f.rt.SetInjector(in)
		objs := accounts(f, 4, 100)
		var wg sync.WaitGroup
		for _, pair := range [][]*objmodel.Object{objs[:2], objs[2:]} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runTransfers(t, f, pair, 1, 100)
			}()
		}
		wg.Wait()
		if in.Fired(faultinject.PostAcquire, faultinject.Delay) == 0 {
			t.Fatal("the delay never fired")
		}
		conserved(t, f, objs, 100)
		if n := f.rt.Stats().Aborts; n != 0 {
			t.Errorf("aborts = %d, want 0", n)
		}
	})
}
