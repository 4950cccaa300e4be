package stm

// The durable commit-sink hook must be free when disabled: a runtime that
// never had a sink — and one whose sink was removed again — commits with
// zero heap allocations, exactly like the pre-durability runtime.

import (
	"testing"

	"repro/internal/stmapi"
)

// countSink counts appends; Wait is immediate (no real WAL underneath).
type countSink struct{ appends int }

func (c *countSink) AppendRedo(txnID, stamp uint64, writes []stmapi.RedoWrite) (uint64, error) {
	c.appends++
	return uint64(c.appends), nil
}

func (c *countSink) WaitDurable(seq uint64) error { return nil }

// TestDisabledSinkAllocFree pins the sink hook's disabled path: with no
// commit sink installed — including after one was installed and removed —
// a committed read-write transaction performs zero heap allocations.
func TestDisabledSinkAllocFree(t *testing.T) {
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.newCell()
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
		t.Errorf("never-sinked transaction allocates %.1f objects, want 0", avg)
	}

	// Install a sink, run through it, then remove it: pooled descriptors
	// that carried redo scratch must come back allocation-free.
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
		t.Errorf("de-sinked transaction allocates %.1f objects, want 0", avg)
	}
}
