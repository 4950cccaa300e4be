package strong

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/elide"
	"repro/internal/objmodel"
	"repro/internal/trace"
)

// allocSite builds a manifest site for an allocation `delta` lines below
// the caller.
func allocSite(delta int, class string) elide.Site {
	_, file, line, _ := runtime.Caller(1)
	base := filepath.Base(file)
	return elide.Site{ID: elide.SiteID(base, line+delta), File: base, Line: line + delta, Class: class}
}

// A manifest-minted private object must ride the Figure 10 fast paths even
// with DEA off: the generic write barrier's anonymous acquisition would
// corrupt the all-ones record (its bit-0 CAS yields an invalid word).
func TestManifestPrivateFastPathWithDEAOff(t *testing.T) {
	h := objmodel.NewHeap() // AllocPrivate stays false: DEA off
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "Cell",
		Fields: []objmodel.Field{{Name: "f"}, {Name: "next", IsRef: true}},
	})
	h.ApplyManifest(&elide.Manifest{
		Version: elide.Version, Tool: "test",
		Sites: []elide.Site{allocSite(2, elide.ClassNAIT)},
	})
	priv := h.New(cls)
	if !priv.IsPrivate() {
		t.Fatalf("manifest site not born private")
	}

	b := New(h, false)
	st := &Stats{}
	b.Stats = st

	b.Write(priv, 0, 42)
	if !priv.IsPrivate() {
		t.Fatalf("write barrier corrupted the private record: rec=%#x", priv.Rec.Load())
	}
	if got := b.Read(priv, 0); got != 42 {
		t.Fatalf("Read = %d, want 42", got)
	}
	if st.PrivateWrites.Load() != 1 || st.PrivateReads.Load() != 1 {
		t.Fatalf("fast-path stats = %d writes / %d reads, want 1/1",
			st.PrivateWrites.Load(), st.PrivateReads.Load())
	}

	// Aggregated barriers must take the private shortcut too.
	tok := b.Acquire(priv)
	b.AggWrite(priv, 0, 43, tok)
	b.Release(priv, tok)
	if !priv.IsPrivate() {
		t.Fatalf("aggregated barrier corrupted the private record")
	}
}

// Writing a manifest-private object's reference into a public container
// through the NT write barrier must publish it (Figure 10b), DEA or not.
func TestManifestPublicationOnEscape(t *testing.T) {
	h := objmodel.NewHeap()
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "Cell",
		Fields: []objmodel.Field{{Name: "f"}, {Name: "next", IsRef: true}},
	})
	h.ApplyManifest(&elide.Manifest{
		Version: elide.Version, Tool: "test",
		Sites: []elide.Site{allocSite(2, elide.ClassNAIT)},
	})
	priv := h.New(cls)
	pub := h.NewPublic(cls)

	b := New(h, false)
	b.WriteRef(pub, 1, priv.Ref())
	if priv.IsPrivate() {
		t.Fatalf("escaped object still private after NT publication write")
	}
}

// TestBarrierObserverSeesAccesses: a tracer on the barriers records each
// completed access once, as the same trace.Event a transactional step is:
// Txn 0, the object and slot, and the version read or released, which is
// nonzero on a public object and 0 on the Figure 10 private fast path.
func TestBarrierObserverSeesAccesses(t *testing.T) {
	h := objmodel.NewHeap()
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "Cell",
		Fields: []objmodel.Field{{Name: "f"}},
	})
	o := h.NewPublic(cls)
	h.AllocPrivate = true
	p := h.New(cls)
	b := New(h, true)
	var seen []trace.Event
	b.Tracer = trace.New(trace.Config{Shards: 1, ShardCapacity: 16})
	b.Tracer.SetSink(trace.SinkFunc(func(ev trace.Event) { seen = append(seen, ev) }))
	b.Write(o, 0, 7)
	_ = b.Read(o, 0)
	_ = b.ReadOrdering(o, 0)
	tok := b.Acquire(o)
	b.AggWrite(o, 0, 8, tok)
	_ = b.AggRead(o, 0, tok)
	b.Release(o, tok)
	b.Write(p, 0, 9)

	want := []struct {
		kind trace.Kind
		obj  *objmodel.Object
	}{
		{trace.EvNTWrite, o}, {trace.EvNTRead, o}, {trace.EvNTRead, o},
		{trace.EvNTWrite, o}, {trace.EvNTRead, o}, {trace.EvNTWrite, p},
	}
	if len(seen) != len(want) {
		t.Fatalf("tracer saw %d accesses, want %d: %+v", len(seen), len(want), seen)
	}
	for i, w := range want {
		ev := seen[i]
		if ev.Kind != w.kind || ev.Txn != 0 || ev.Obj != uint64(w.obj.Ref()) || ev.Slot != 0 {
			t.Errorf("access %d = %+v, want %v of object %d slot 0 with Txn 0", i, ev, w.kind, w.obj.Ref())
		}
		if private := w.obj == p; (ev.Ver == 0) != private {
			t.Errorf("access %d (private %v) carries version %d", i, private, ev.Ver)
		}
	}
}
