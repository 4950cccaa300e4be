package lazystm

// Fault-injection tests for the lazy runtime: injected aborts in the
// commit-time acquire/validate sequence must discard buffers and restore
// records. An injected death is an orphan; its checks are in
// recovery_test.go and internal/litmus.

import (
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/txrec"
)

var abortPoints = []faultinject.Point{
	faultinject.PreAcquire,
	faultinject.PostAcquire,
	faultinject.PreValidate,
}

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
				objs[i] = f.heap.New(f.cls)
				objs[i].StoreSlot(0, balance)
			}
			runTransfers(t, f, objs, 4, 300)

			if in.Fired(p, faultinject.Abort) == 0 {
				t.Fatalf("injector never fired at %v", p)
			}
			var sum uint64
			for i, o := range objs {
				if w := o.Rec.Load(); !txrec.IsShared(w) {
					t.Errorf("account %d record %#x not back to Shared", i, w)
				}
				sum += o.LoadSlot(0)
			}
			if sum != accounts*balance {
				t.Errorf("total balance %d, want %d (buffered writes leaked or lost)", sum, accounts*balance)
			}
			if n := f.rt.ActiveTransactions(); n != 0 {
				t.Errorf("active transactions = %d, want 0", n)
			}
		})
	}
}
