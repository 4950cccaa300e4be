package stm

// Fault-injection tests: inject aborts at every doom site under concurrency
// and assert the invariants that make abort safe — no lost undo entries
// (money is conserved), records return to Shared, quiescence never hangs.
// An injected death is an orphan; its checks are in recovery_test.go and
// internal/litmus.

import (
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/txrec"
)

// abortPoints are the sites where an injected Abort exercises the ordinary
// doom/restart machinery (PreRelease aborts on the abort path itself are
// meaningless; PostCommitPoint cannot abort past the commit point).
var abortPoints = []faultinject.Point{
	faultinject.PreAcquire,
	faultinject.PostAcquire,
	faultinject.PreValidate,
}

// runTransfers drives a concurrent transfer workload: G goroutines, each
// committing n transactions moving one unit between two pseudo-random
// accounts. Total balance is invariant iff rollback replays every undo
// entry.
func runTransfers(t *testing.T, f *fixture, accounts []*objmodel.Object, goroutines, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := seed*2862933555777941757 + 3037000493
			for i := 0; i < n; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				from := accounts[rng%uint64(len(accounts))]
				to := accounts[(rng>>8)%uint64(len(accounts))]
				if from == to {
					continue
				}
				if err := f.rt.Atomic(func(tx stmapi.Txn) error {
					a := tx.Read(from, 0)
					b := tx.Read(to, 0)
					tx.Write(from, 0, a-1)
					tx.Write(to, 0, b+1)
					return nil
				}); err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
}

func TestInjectedAbortsPreserveInvariants(t *testing.T) {
	for _, p := range abortPoints {
		t.Run(p.String(), func(t *testing.T) {
			f := newFixture(t, stmapi.CommonConfig{})
			in := faultinject.New(uint64(p)+1, faultinject.Rule{
				Point: p, Action: faultinject.Abort, Rate: 256,
			})
			f.rt.SetInjector(in)
			const accounts, balance = 8, 1000
			objs := make([]*objmodel.Object, accounts)
			for i := range objs {
				objs[i] = f.newCell()
				objs[i].StoreSlot(0, balance)
			}
			runTransfers(t, f, objs, 4, 300)

			if in.Fired(p, faultinject.Abort) == 0 {
				t.Fatalf("injector never fired at %v; test exercised nothing", p)
			}
			var sum uint64
			for i, o := range objs {
				if w := o.Rec.Load(); !txrec.IsShared(w) {
					t.Errorf("account %d record %#x not back to Shared", i, w)
				}
				sum += o.LoadSlot(0)
			}
			if sum != accounts*balance {
				t.Errorf("total balance %d, want %d (undo entries lost)", sum, accounts*balance)
			}
			if n := f.rt.ActiveTransactions(); n != 0 {
				t.Errorf("active transactions = %d, want 0", n)
			}
			s := f.rt.Stats()
			if s.Aborts == 0 {
				t.Errorf("no aborts recorded despite %d injected", in.Fired(p, faultinject.Abort))
			}
		})
	}
}

func TestInjectedAbortsWithQuiescenceNeverHang(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{Quiescence: true})
	rules := make([]faultinject.Rule, len(abortPoints))
	for i, p := range abortPoints {
		rules[i] = faultinject.Rule{Point: p, Action: faultinject.Abort, Rate: 128}
	}
	in := faultinject.New(7, rules...)
	f.rt.SetInjector(in)
	objs := make([]*objmodel.Object, 4)
	for i := range objs {
		objs[i] = f.newCell()
		objs[i].StoreSlot(0, 100)
	}
	// Completing at all (inside the test timeout) is the assertion: a
	// doomed transaction must never leave the quiescence scan spinning.
	runTransfers(t, f, objs, 4, 200)
	if in.TotalFired() == 0 {
		t.Fatalf("injector never fired")
	}
	if n := f.rt.ActiveTransactions(); n != 0 {
		t.Fatalf("active transactions = %d, want 0", n)
	}
}

func TestInjectedDelayWidensRaceWindows(t *testing.T) {
	// Delay is behavioral grease for the litmus programs; here just assert
	// it neither aborts nor corrupts anything.
	f := newFixture(t, stmapi.CommonConfig{})
	in := faultinject.New(3, faultinject.Rule{
		Point: faultinject.PostAcquire, Action: faultinject.Delay, Every: 4, Sleep: 1,
	})
	f.rt.SetInjector(in)
	objs := make([]*objmodel.Object, 4)
	for i := range objs {
		objs[i] = f.newCell()
		objs[i].StoreSlot(0, 100)
	}
	runTransfers(t, f, objs, 2, 100)
	var sum uint64
	for _, o := range objs {
		sum += o.LoadSlot(0)
	}
	if sum != 400 {
		t.Fatalf("total balance %d, want 400", sum)
	}
	if in.Fired(faultinject.PostAcquire, faultinject.Delay) == 0 {
		t.Fatalf("delay never fired")
	}
}
