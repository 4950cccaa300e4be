package mvstm

// The zero-abort litmus: read-only snapshot transactions must complete
// under a sustained writer storm with zero aborts and zero retries — the
// property that justifies the multi-version runtime's existence. The
// assertion is made twice over: once against the runtime's Stats, and once
// against the causal flight recorder's conflict DAG, which must contain no
// edge touching a reader transaction (readers never wait on, abort, or get
// aborted by anyone, so they are isolated vertices of the conflict graph).

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/causal"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
)

func TestReadOnlyZeroAbortsUnderWriterStorm(t *testing.T) {
	const (
		objects    = 4 // few objects: writers conflict constantly
		writers    = 4
		writerTxns = 400
		readers    = 4
		readerTxns = 400
	)
	f := newFixture(t, stmapi.CommonConfig{})
	tr := trace.New(trace.Config{})
	rec := causal.NewRecorder(causal.Config{})
	tr.SetSink(rec)
	f.rt.SetTracer(tr)

	pool := make([]*objmodel.Object, objects)
	for i := range pool {
		pool[i] = f.heap.New(f.cls)
	}
	// Prime every object with one transactional write so version chains
	// exist before the storm: readers take the chain path from the start.
	if err := f.rt.Atomic(func(tx stmapi.Txn) error {
		for _, o := range pool {
			tx.Write(o, 0, 1)
			tx.Write(o, 1, 1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var (
		readerIDs  sync.Map // txn id -> struct{}: every id a reader ran under
		readerRuns atomic.Int64
		torn       atomic.Int64
		wwg, rwg   sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		w := w
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			for i := 0; i < writerTxns; i++ {
				o := pool[(w+i)%objects]
				_ = f.rt.Atomic(func(tx stmapi.Txn) error {
					v := tx.Read(o, 0)
					tx.Write(o, 0, v+1)
					tx.Write(o, 1, v+1) // invariant: slot 0 == slot 1
					return nil
				})
			}
		}()
	}
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for i := 0; i < readerTxns; i++ {
				err := f.rt.AtomicRead(func(tx stmapi.Txn) error {
					readerRuns.Add(1)
					readerIDs.Store(tx.ID(), struct{}{})
					if tx.Attempt() != 0 {
						t.Errorf("read-only body on attempt %d, want 0", tx.Attempt())
					}
					for _, o := range pool {
						if a, b := tx.Read(o, 0), tx.Read(o, 1); a != b {
							torn.Add(1)
						}
					}
					return nil
				})
				if err != nil {
					t.Errorf("AtomicRead: %v", err)
				}
			}
		}()
	}
	rwg.Wait()
	wwg.Wait()

	if n := torn.Load(); n != 0 {
		t.Errorf("%d torn snapshots (slot 0 != slot 1)", n)
	}

	// Stats: zero reader aborts, zero reader retries (every body ran exactly
	// once), and the snapshot read path actually served the storm.
	s := f.rt.Stats()
	if s.ReadOnlyAborts != 0 {
		t.Errorf("ReadOnlyAborts = %d, want 0", s.ReadOnlyAborts)
	}
	if got, want := readerRuns.Load(), int64(readers*readerTxns); got != want {
		t.Errorf("reader bodies ran %d times, want %d (a retry occurred)", got, want)
	}
	if got, want := s.ReadOnlyTxns, int64(readers*readerTxns); got != want {
		t.Errorf("ReadOnlyTxns = %d, want %d", got, want)
	}
	if s.SnapshotReads == 0 {
		t.Error("SnapshotReads = 0: readers never touched the snapshot path")
	}

	// The conflict DAG: the writer storm must have produced causal structure
	// (otherwise the run proved nothing), and none of it may touch a reader.
	g := rec.Graph()
	if s.Aborts > 0 && len(g.Edges) == 0 {
		t.Errorf("writers aborted %d times but the recorder saw no edges", s.Aborts)
	}
	isReader := func(id uint64) bool {
		_, ok := readerIDs.Load(id)
		return ok
	}
	for _, e := range g.Edges {
		if isReader(e.From.Txn) || isReader(e.To.Txn) {
			t.Errorf("causal %s edge touches a read-only transaction: %+v", e.Kind, e)
		}
	}
	for _, a := range g.Attempts {
		if !isReader(a.Txn) {
			continue
		}
		if a.N != 0 {
			t.Errorf("reader txn %d recorded attempt %d: readers must run once", a.Txn, a.N)
		}
		if a.Outcome == causal.Aborted {
			t.Errorf("reader txn %d recorded as aborted in the DAG", a.Txn)
		}
	}
}
