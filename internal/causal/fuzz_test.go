package causal

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// lazyCommitDump is a trace dump of a strongly atomic lazy system: one
// writing commit (its commit point and write-back among its events) and a
// non-transactional write and read through the barriers on the same tracer.
func lazyCommitDump(t testing.TB) []byte {
	sys := core.MustNewSystem(core.Config{Versioning: "lazy", Strong: true})
	tr := trace.New(trace.Config{Shards: 1, ShardCapacity: 64})
	sys.RT.SetTracer(tr)
	sys.Barriers.Tracer = tr
	cls, err := sys.DefineClass("Cell", core.Field{Name: "f"})
	if err != nil {
		t.Fatal(err)
	}
	o := sys.New(cls)
	if err := sys.Atomic(func(tx core.Tx) error {
		tx.Write(o, 0, tx.Read(o, 0)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sys.Write(o, 0, 5)
	_ = sys.Read(o, 0)
	for _, k := range []trace.Kind{trace.EvCommitPoint, trace.EvWriteBack, trace.EvNTWrite, trace.EvNTRead} {
		if tr.Count(k) == 0 {
			t.Fatalf("the traced lazy commit recorded no %v", k)
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteDump(&buf, tr.DumpState()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzTraceDump feeds arbitrary bytes down the offline trace path stmtrace
// takes: trace.ReadDump, then Build, Analyze and both exporters. A dump
// that parses may describe any history at all, and every stage must take it
// without panicking.
func FuzzTraceDump(f *testing.F) {
	f.Add(lazyCommitDump(f))
	f.Add([]byte(`[{"kind":0,"txn":1,"seq":1,"unix_ns":10},{"kind":1,"txn":1,"obj":3,"slot":0,"ver":1,"seq":2,"unix_ns":20},{"kind":7,"txn":1,"seq":3,"unix_ns":30}]`))
	f.Add([]byte(`{"total_events":2,"events":[{"kind":200,"txn":4,"obj":9,"seq":1,"unix_ns":5},{"kind":5,"txn":4,"obj":9,"seq":2,"unix_ns":6}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := trace.ReadDump(bytes.NewReader(data))
		if err != nil {
			return
		}
		g := Build(d.Events, Config{})
		_ = Analyze(g)
		_ = WritePerfetto(io.Discard, g)
		_ = WriteDOT(io.Discard, g)
	})
}
