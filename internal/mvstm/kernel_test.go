package mvstm

// The kernel behaviours every runtime shares, checked on this one (the
// checks live in txntest), and the allocation gate for the paths that are
// allocation-free here.

import (
	"testing"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
	"repro/internal/txn/txntest"
)

func TestAtomicCtxPreCancelledSkipsBody(t *testing.T) { txntest.CtxPreCancelledSkipsBody(t, "mvstm") }
func TestAtomicCtxDeadlineInRetryWait(t *testing.T)   { txntest.CtxDeadlineInRetryWait(t, "mvstm") }
func TestAtomicCtxAPIAdapter(t *testing.T)            { txntest.CtxAPIAdapter(t, "mvstm") }
func TestStatsFlushParallel(t *testing.T)             { txntest.StatsFlushParallel(t, "mvstm") }
func TestPoliciesPreserveInvariantsUnderContention(t *testing.T) {
	txntest.PoliciesPreserveInvariants(t, "mvstm")
}

// The commit-time protocol's orphan checks; on this runtime each also
// requires the commit gate to come out empty.
func TestReaperRestoresOrphanedRecord(t *testing.T) {
	txntest.ReaperRestoresOrphanedRecord(t, "mvstm")
}
func TestCommittedOrphanKeepsEffectsAndUnstallsTickets(t *testing.T) {
	txntest.CommittedOrphanKeepsEffectsAndUnstallsTickets(t, "mvstm")
}

type countSink struct{ appends int }

func (c *countSink) AppendRedo(txnID, stamp uint64, writes []stmapi.RedoWrite) (uint64, error) {
	c.appends++
	return uint64(c.appends), nil
}

func (c *countSink) WaitDurable(seq uint64) error { return nil }

// TestMVDisabledHooksAllocFree pins the disabled tracer and commit-sink
// hooks on the multi-version runtime: a transaction that does not write —
// through Atomic, through AtomicRead, and through AtomicRead called on the
// stmapi.ReadOnlyRuntime interface — allocates nothing, including after a tracer and a sink have been
// installed and removed again. So does a writing commit in steady state:
// these objects are rewritten by every commit and no other snapshot is
// live, so each install rewrites its object's head in place
// (TestHotInstallRewritesInPlace), and the write set, its sort and the
// pruning allocate nothing.
func TestMVDisabledHooksAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; exact alloc count only meaningful without -race")
	}
	f := newFixture(t, stmapi.CommonConfig{})
	o := f.heap.New(f.cls)
	if err := f.rt.Atomic(func(tx stmapi.Txn) error { tx.Write(o, 0, 1); return nil }); err != nil {
		t.Fatal(err) // gives o a version chain, so the reads below walk one
	}
	var api stmapi.ReadOnlyRuntime = f.rt
	reader := func(tx stmapi.Txn) error { _ = tx.Read(o, 0); return nil }
	writer := func(tx stmapi.Txn) error { tx.Write(o, 0, tx.Read(o, 0)+1); return nil }
	var eight [8]*objmodel.Object
	for i := range eight {
		eight[i] = f.heap.New(f.cls)
	}
	writer8 := func(tx stmapi.Txn) error {
		for _, o := range eight {
			tx.Write(o, 0, tx.Read(o, 0)+1)
			tx.Write(o, 1, tx.Read(o, 1)+1)
		}
		return nil
	}
	paths := []struct {
		name string
		want float64
		run  func() error
	}{
		{"Atomic read-only", 0, func() error { return f.rt.Atomic(reader) }},
		{"AtomicRead", 0, func() error { return f.rt.AtomicRead(reader) }},
		{"AtomicRead through stmapi", 0, func() error { return api.AtomicRead(reader) }},
		{"Atomic writing", 0, func() error { return f.rt.Atomic(writer) }},
		{"Atomic writing 8 objects", 0, func() error { return f.rt.Atomic(writer8) }},
	}
	measure := func(when string) {
		for _, p := range paths {
			for i := 0; i < 10; i++ { // warm the descriptor pool
				if err := p.run(); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(200, func() {
				if err := p.run(); err != nil {
					t.Fatal(err)
				}
			})
			if avg > p.want {
				t.Errorf("%s, %s: %.1f allocations per transaction, want at most %.0f", when, p.name, avg, p.want)
			}
		}
	}
	measure("no hooks ever installed")

	sink := &countSink{}
	f.rt.SetCommitSink(sink)
	f.rt.SetTracer(trace.New(trace.Config{Shards: 1, ShardCapacity: 64}))
	for i := 0; i < 20; i++ {
		if err := f.rt.Atomic(writer); err != nil {
			t.Fatal(err)
		}
	}
	if sink.appends == 0 {
		t.Fatal("sink never saw a redo append while installed")
	}
	f.rt.SetCommitSink(nil)
	f.rt.SetTracer(nil)
	measure("hooks installed and removed")
}
