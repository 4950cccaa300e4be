package litmus

// Crash-recovery litmus programs: a transaction's thread dies (faultinject
// Orphan) at each of the five commit-protocol points on every registered
// runtime, and the suite asserts the recovery contract — every txrec
// returns to Shared,
// the bank's total balance is conserved (the orphan's transfer either fully
// commits or fully rolls back), and transactions blocked on the orphan's
// records make progress within a bounded wait.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/conflict"
	"repro/internal/faultinject"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/txrec"
)

const (
	crashAccts   = 8
	crashInitBal = 1000
)

// crashRig is one runtime under crash testing and the accounts it moves
// balances between.
type crashRig struct {
	kind  string
	accts []*objmodel.Object
	rt    stmapi.Runtime
}

func newCrashRig(t *testing.T, kind string) *crashRig {
	t.Helper()
	h := objmodel.NewHeap()
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "Acct",
		Fields: []objmodel.Field{{Name: "bal"}},
	})
	pol, err := conflict.ByName(defaultPolicy)
	if err != nil {
		t.Fatalf("build runtime: %v", err)
	}
	api, err := stmapi.New(kind, h, stmapi.CommonConfig{Handler: pol})
	if err != nil {
		t.Fatalf("build runtime: %v", err)
	}
	rig := &crashRig{kind: kind, rt: api}
	for i := 0; i < crashAccts; i++ {
		o := h.New(cls)
		o.StoreSlot(0, crashInitBal)
		rig.accts = append(rig.accts, o)
	}
	return rig
}

// transfer moves amt from account i to account j transactionally.
func (rig *crashRig) transfer(i, j int, amt uint64) error {
	return rig.rt.Atomic(func(tx stmapi.Txn) error {
		from, to := rig.accts[i], rig.accts[j]
		tx.Write(from, 0, tx.Read(from, 0)-amt)
		tx.Write(to, 0, tx.Read(to, 0)+amt)
		return nil
	})
}

// checkInvariants asserts every account record is back to Shared and the
// total balance is conserved (each transfer is sum-preserving whether it
// committed or rolled back, so any other total means a partial effect).
func (rig *crashRig) checkInvariants(t *testing.T) {
	t.Helper()
	var total uint64
	for i, o := range rig.accts {
		if w := o.Rec.Load(); !txrec.IsShared(w) {
			t.Errorf("%s: account %d record not Shared after recovery: %#x", rig.kind, i, w)
		}
		total += o.LoadSlot(0)
	}
	if want := uint64(crashAccts * crashInitBal); total != want {
		t.Errorf("%s: total balance = %d, want %d (conservation violated)", rig.kind, total, want)
	}
}

// reapEvery sweeps rt with ReapDead every interval until the returned stop
// is called; stop returns once the sweeping goroutine has exited, with the
// total it reclaimed.
func reapEvery(rt stmapi.Runtime, interval time.Duration) (stop func() int) {
	quit, reaped := make(chan struct{}), make(chan int)
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		n := 0
		for {
			select {
			case <-quit:
				reaped <- n
				return
			case <-tick.C:
				n += rt.ReapDead()
			}
		}
	}()
	return func() int {
		close(quit)
		return <-reaped
	}
}

// orphanAtomic runs body in its own goroutine and swallows the OrphanError
// the injected death raises, returning once the goroutine has unwound.
func orphanAtomic(t *testing.T, rt stmapi.Runtime, body func(tx stmapi.Txn) error) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		defer func() {
			r := recover()
			if r == nil {
				done <- errors.New("transaction completed: no orphan fired")
				return
			}
			if _, ok := r.(faultinject.OrphanError); !ok {
				panic(r)
			}
			done <- nil
		}()
		done <- rt.Atomic(body)
	}()
	if err := <-done; err != nil {
		t.Fatalf("orphan goroutine: %v", err)
	}
}

var crashPoints = []faultinject.Point{
	faultinject.PreAcquire,
	faultinject.PostAcquire,
	faultinject.PreValidate,
	faultinject.PostCommitPoint,
	faultinject.PreRelease,
}

// pastCommitPoint reports whether an orphan dead at p has committed: the
// two points inside the commit window.
func pastCommitPoint(p faultinject.Point) bool {
	return p == faultinject.PostCommitPoint || p == faultinject.PreRelease
}

// TestOrphanReclaimedAtEveryPoint kills the owner at each of the five
// commit-protocol points on every registered runtime and checks the full
// recovery contract: one reap, records Shared, balances conserved, the
// orphan's transfer applied iff it died past its commit point, no attempt
// left in flight, and a subsequent writer over the same accounts commits
// promptly.
func TestOrphanReclaimedAtEveryPoint(t *testing.T) {
	underEachPolicy(t, func(t *testing.T) {
		for _, kind := range stmapi.Runtimes() {
			for _, p := range crashPoints {
				p := p
				t.Run(kind+"/"+p.String(), func(t *testing.T) {
					rig := newCrashRig(t, kind)
					rig.rt.SetInjector(faultinject.New(1, faultinject.Rule{Point: p, Action: faultinject.Orphan, Every: 1}))
					orphanAtomic(t, rig.rt, func(tx stmapi.Txn) error {
						tx.Write(rig.accts[0], 0, tx.Read(rig.accts[0], 0)-5)
						tx.Write(rig.accts[1], 0, tx.Read(rig.accts[1], 0)+5)
						return nil
					})
					rig.rt.SetInjector(nil)

					if n := rig.rt.ReapDead(); n != 1 {
						t.Fatalf("reaped %d transactions, want 1", n)
					}
					rig.checkInvariants(t)
					want := uint64(crashInitBal)
					if pastCommitPoint(p) {
						want -= 5
					}
					if got := rig.accts[0].LoadSlot(0); got != want {
						t.Errorf("account 0 = %d after reclaim, want %d", got, want)
					}
					if n := rig.rt.ActiveTransactions(); n != 0 {
						t.Errorf("active transactions = %d after reclaim, want 0", n)
					}
					// Waiters must be unblocked: a transfer over the same two
					// accounts has to commit without help.
					done := make(chan error, 1)
					go func() { done <- rig.transfer(0, 1, 1) }()
					select {
					case err := <-done:
						if err != nil {
							t.Fatalf("transfer after reap: %v", err)
						}
					case <-time.After(5 * time.Second):
						t.Fatal("transfer blocked after reap: waiters not unblocked")
					}
					rig.checkInvariants(t)
				})
			}
		}
	})
}

// TestWaitersUnblockUnderBackgroundReaper parks writers on an orphan's
// records before any reclaim has happened and lets a background ReapDead
// sweep free them: every waiter must commit within a bounded wait.
func TestWaitersUnblockUnderBackgroundReaper(t *testing.T) {
	underEachPolicy(t, func(t *testing.T) {
		for _, kind := range stmapi.Runtimes() {
			t.Run(kind, func(t *testing.T) {
				rig := newCrashRig(t, kind)
				rig.rt.SetInjector(faultinject.New(1, faultinject.Rule{Point: faultinject.PreValidate, Action: faultinject.Orphan, Every: 1}))
				orphanAtomic(t, rig.rt, func(tx stmapi.Txn) error {
					for i := range rig.accts {
						tx.Write(rig.accts[i], 0, tx.Read(rig.accts[i], 0)+1)
					}
					return nil
				})
				rig.rt.SetInjector(nil)

				const waiters = 4
				errs := make(chan error, waiters)
				for w := 0; w < waiters; w++ {
					w := w
					go func() {
						errs <- rig.transfer(w%crashAccts, (w+1)%crashAccts, 1)
					}()
				}
				stop := reapEvery(rig.rt, time.Millisecond)
				deadline := time.After(10 * time.Second)
				for w := 0; w < waiters; w++ {
					select {
					case err := <-errs:
						if err != nil {
							t.Errorf("waiter: %v", err)
						}
					case <-deadline:
						stop()
						t.Fatalf("%d of %d waiters still blocked on the orphan's records", waiters-w, waiters)
					}
				}
				if stop() == 0 {
					// Inline waiter steals may have beaten the sweep; either way
					// the records must be consistent again.
					t.Log("the sweep reclaimed nothing: waiters stole inline")
				}
				rig.checkInvariants(t)
			})
		}
	})
}

// TestCrashStormConservesBalances runs opposed transfer workers with ~1%
// orphan injection at every protocol point while a background ReapDead
// sweep runs.
// Workers whose thread "dies" stay dead; at the end every record must be
// Shared again, the total conserved, and every surviving commit durable.
func TestCrashStormConservesBalances(t *testing.T) {
	underEachPolicy(t, func(t *testing.T) {
		const (
			workers = 8
			iters   = 400
		)
		for _, kind := range stmapi.Runtimes() {
			t.Run(kind, func(t *testing.T) {
				rig := newCrashRig(t, kind)
				rules := make([]faultinject.Rule, 0, len(crashPoints))
				for _, p := range crashPoints {
					rules = append(rules, faultinject.Rule{Point: p, Action: faultinject.Orphan, Rate: 10}) // ~1%/point
				}
				rig.rt.SetInjector(faultinject.New(7, rules...))
				stop := reapEvery(rig.rt, time.Millisecond)

				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer func() {
							if r := recover(); r != nil {
								if _, ok := r.(faultinject.OrphanError); !ok {
									panic(r)
								}
								// Thread death: this worker is gone for good.
							}
						}()
						for i := 0; i < iters; i++ {
							from := (w + i) % crashAccts
							to := (from + 1 + i%(crashAccts-1)) % crashAccts
							_ = rig.transfer(from, to, 1)
						}
					}()
				}
				wg.Wait()
				rig.rt.SetInjector(nil)
				reaped := stop()
				// Drain: sweep until two consecutive sweeps find nothing to
				// reap, so late deaths are reclaimed before the invariant check.
				for dry := 0; dry < 2; {
					if n := rig.rt.ReapDead(); n == 0 {
						dry++
					} else {
						reaped += n
						dry = 0
					}
				}
				rig.checkInvariants(t)
				if reaped == 0 {
					t.Log("no sweep steals: all orphans reclaimed inline by waiters")
				}
			})
		}
	})
}
