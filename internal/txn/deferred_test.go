package txn_test

// The deferred-update commit's locking protocol on the runtimes that use it
// (lazy, mvstm): a committer that meets a held record waits holding
// nothing, and write sets acquired in opposite orders, by revocable and
// irrevocable committers under every policy, neither deadlock nor lose an
// update. Run under -race in CI.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/conflict"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/txrec"
)

// deferredRuntimes are the runtimes that acquire their write set at commit.
var deferredRuntimes = []string{"lazy", "mvstm"}

// watchPolicy calls check at every conflict it is asked to resolve, then
// backs off.
type watchPolicy struct {
	conflict.Backoff
	check func(conflict.Info)
}

func (p *watchPolicy) Resolve(info conflict.Info) conflict.Decision {
	p.check(info)
	return p.Backoff.Resolve(info)
}

// TestCommitWaitsHoldingNothing: a committer whose write set is x then y,
// x's handle below y's, meets y held by a transaction parked in its commit
// window. At every conflict round its policy is handed, x's record is the
// word it had before: the committer gave x back before it waited. Once y is
// released the committer commits.
func TestCommitWaitsHoldingNothing(t *testing.T) {
	for _, name := range deferredRuntimes {
		t.Run(name, func(t *testing.T) {
			var x *objmodel.Object
			var orig txrec.Word
			var rounds, heldX atomic.Int32
			pol := &watchPolicy{check: func(conflict.Info) {
				if x.Rec.Load() != orig {
					heldX.Add(1)
				}
				rounds.Add(1)
			}}
			f := newFixture(t, name, stmapi.CommonConfig{Handler: pol})
			x = f.cell()
			y := f.cell()
			if x.Ref() >= y.Ref() {
				t.Fatalf("x #%d allocated above y #%d", x.Ref(), y.Ref())
			}
			orig = x.Rec.Load()
			release, parked := park(f, y, true)
			var once sync.Once
			free := func() { once.Do(release) }
			done := make(chan error, 1)
			go func() {
				done <- f.rt.Atomic(func(tx stmapi.Txn) error {
					tx.Write(x, 0, 2)
					tx.Write(y, 0, 2)
					return nil
				})
			}()
			joined := false
			t.Cleanup(func() {
				free()
				if joined {
					return
				}
				for _, c := range []<-chan error{parked, done} {
					select {
					case <-c:
					case <-time.After(5 * time.Second):
					}
				}
			})
			waitFor(t, "three conflict rounds on y", func() bool { return rounds.Load() >= 3 })
			free()
			within(t, parked, "the parked holder did not commit")
			within(t, done, "the committer did not commit once y was released")
			joined = true
			if n := heldX.Load(); n != 0 {
				t.Errorf("x was held at %d of %d conflict rounds, want none", n, rounds.Load())
			}
			if x.LoadSlot(0) != 2 || y.LoadSlot(0) != 2 {
				t.Errorf("x, y = %d, %d; want the committer's 2, 2", x.LoadSlot(0), y.LoadSlot(0))
			}
		})
	}
}

// TestCrossedWriteSets: four goroutines increment the same cells, two in
// allocation order and two in the reverse, and one of them commits through
// AtomicIrrevocable every 64 operations, under every policy. Every
// increment lands (the counts are exact), every record ends Shared, and the
// row finishes within crossedBound; on a stall the workers are stopped and
// waited for, one bound more, before the test fails.
func TestCrossedWriteSets(t *testing.T) {
	const goroutines, ops, cells = 4, 1024, 4
	const crossedBound = 20 * time.Second
	for _, name := range deferredRuntimes {
		for _, policy := range conflict.PolicyNames {
			t.Run(name+"/"+policy, func(t *testing.T) {
				pol, err := conflict.ByName(policy)
				if err != nil {
					t.Fatal(err)
				}
				f := newFixture(t, name, stmapi.CommonConfig{Handler: pol})
				objs := accounts(f, cells, 0)
				var stop atomic.Bool
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < ops && !stop.Load(); i++ {
							run := f.rt.Atomic
							if g == 0 && i%64 == 0 {
								run = f.rt.AtomicIrrevocable
							}
							if err := run(func(tx stmapi.Txn) error {
								for k := range objs {
									if g%2 == 1 {
										k = len(objs) - 1 - k
									}
									tx.Write(objs[k], 0, tx.Read(objs[k], 0)+1)
								}
								return nil
							}); err != nil {
								t.Errorf("goroutine %d: %v", g, err)
								return
							}
						}
					}()
				}
				finished := make(chan struct{})
				go func() { wg.Wait(); close(finished) }()
				select {
				case <-finished:
				case <-time.After(crossedBound):
					stop.Store(true)
					select {
					case <-finished:
						t.Fatalf("the crossed writers did not finish within %v", crossedBound)
					case <-time.After(crossedBound):
						t.Fatalf("the crossed writers did not finish within %v, nor stop within %v more: deadlocked", crossedBound, crossedBound)
					}
				}
				for i, o := range objs {
					if w := o.Rec.Load(); !txrec.IsShared(w) {
						t.Errorf("cell %d record %#x not back to Shared", i, w)
					}
					if got := o.LoadSlot(0); got != goroutines*ops {
						t.Errorf("cell %d = %d, want %d", i, got, goroutines*ops)
					}
				}
				if n := f.rt.ActiveTransactions(); n != 0 {
					t.Errorf("active transactions = %d, want 0", n)
				}
				s := f.rt.Stats()
				t.Logf("commits=%d aborts=%d self-aborts=%d dooms=%d", s.Commits, s.Aborts, s.SelfAborts, s.DoomsIssued)
			})
		}
	}
}
