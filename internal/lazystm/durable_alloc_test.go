package lazystm

// The durable commit-sink hook must be free when disabled: a lazy runtime
// that never had a sink — and one whose sink was removed again — commits
// with zero heap allocations, exactly like the pre-durability runtime.

import (
	"testing"

	"repro/internal/stmapi"
)

type countSink struct{ appends int }

func (c *countSink) AppendRedo(txnID, stamp uint64, writes []stmapi.RedoWrite) (uint64, error) {
	c.appends++
	return uint64(c.appends), nil
}

func (c *countSink) WaitDurable(seq uint64) error { return nil }

// TestLazyDisabledSinkAllocFree pins the sink hook's disabled path on the
// lazy runtime, including after a sink has been installed and removed.
func TestLazyDisabledSinkAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; exact alloc count only meaningful without -race")
	}
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.heap.New(f.cls)
	body := func(tx stmapi.Txn) error {
		tx.Write(o, 0, tx.Read(o, 0)+1)
		return nil
	}
	measure := func() float64 {
		for i := 0; i < 10; i++ { // warm the descriptor pool
			if err := f.rt.Atomic(body); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(200, func() {
			if err := f.rt.Atomic(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	if avg := measure(); avg != 0 {
		t.Errorf("never-sinked lazy transaction allocates %.1f objects, want 0", avg)
	}

	sink := &countSink{}
	f.rt.SetCommitSink(sink)
	for i := 0; i < 20; i++ {
		if err := f.rt.Atomic(body); err != nil {
			t.Fatal(err)
		}
	}
	if sink.appends == 0 {
		t.Fatal("sink never saw a redo append while installed")
	}
	f.rt.SetCommitSink(nil)
	if avg := measure(); avg != 0 {
		t.Errorf("de-sinked lazy transaction allocates %.1f objects, want 0", avg)
	}
}
