package txn_test

// Isolation regressions for the validation the kernel does once for every
// runtime, run over the registered runtimes. Run under -race in CI.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/txn/txntest"

	_ "repro/internal/lazystm"
	_ "repro/internal/mvstm"
	_ "repro/internal/stm"
)

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
				f := txntest.New(t, name, stmapi.CommonConfig{NoCommitClock: walk})
				rt, a, b := f.Runtime(), f.NewCell(), f.NewCell()
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
