package oracle_test

import (
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/analysis/oracle"
	"repro/internal/causal"
	"repro/internal/elide"
	"repro/internal/objmodel"
	"repro/internal/stm"
	"repro/internal/stmapi"
	"repro/internal/strong"
	"repro/internal/trace"
)

func manifestFor(sites ...elide.Site) *elide.Manifest {
	return &elide.Manifest{Version: elide.Version, Tool: "test", Sites: sites}
}

// hereSite builds a manifest site for an allocation `delta` lines below the
// caller of hereSite.
func hereSite(delta int, class string) elide.Site {
	_, file, line, _ := runtime.Caller(1)
	base := filepath.Base(file)
	return elide.Site{
		ID:    elide.SiteID(base, line+delta),
		File:  base,
		Line:  line + delta,
		Class: class,
	}
}

func oneSlotClass(t *testing.T, h *objmodel.Heap) *objmodel.Class {
	t.Helper()
	return h.MustDefineClass(objmodel.ClassSpec{Name: "T", Fields: []objmodel.Field{{Name: "x"}}})
}

// The teeth test: a manifest that (wrongly) claims a site is nait+tl, then
// a workload that accesses the object transactionally AND from a foreign
// goroutine. The oracle must catch both contradictions — if it stays
// silent here, a passing CI oracle job means nothing.
func TestOracleCatchesWrongManifest(t *testing.T) {
	h := objmodel.NewHeap()
	cls := oneSlotClass(t, h)

	h.ApplyManifest(manifestFor(hereSite(1, elide.ClassNAITTL)))
	obj := h.New(cls)
	if !obj.IsPrivate() {
		t.Fatalf("manifest-classified allocation not born private")
	}

	rec := causal.NewRecorder(causal.Config{})
	orc := oracle.Attach(h, oracle.Config{Recorder: rec})
	if orc.Tracked() != 0 {
		t.Fatalf("oracle tracked pre-attach allocations")
	}
	// Re-allocate at a tracked site so the oracle learns the mapping: the
	// first object predates Attach (observers only see later allocations).
	h.ApplyManifest(manifestFor(hereSite(1, elide.ClassNAITTL)))
	obj = h.New(cls)
	if orc.Tracked() != 1 {
		t.Fatalf("Tracked = %d, want 1", orc.Tracked())
	}

	tr := trace.New(trace.Config{})
	tr.SetSink(orc)
	rt := stm.New(h, stmapi.CommonConfig{})
	rt.SetTracer(tr)

	// Contradiction 1: transactional access of a NAIT-claimed object.
	if err := rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(obj, 0, tx.Read(obj, 0)+1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Contradiction 2: NT-barriered access from a goroutine that did not
	// allocate the object (the TL half of the claim), seen through the same
	// tracer.
	bars := strong.New(h, false)
	bars.Tracer = tr
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = bars.Read(obj, 0)
	}()
	<-done

	if orc.Err() == nil {
		t.Fatalf("oracle silent on a wrong manifest")
	}
	kinds := map[oracle.Kind]bool{}
	for _, b := range orc.Breaches() {
		kinds[b.Kind] = true
		if b.Obj != uint64(obj.Ref()) {
			t.Fatalf("breach blames obj %d, want %d: %s", b.Obj, obj.Ref(), b)
		}
	}
	if !kinds[oracle.NAITBreach] {
		t.Fatalf("transactional access of nait-claimed object not caught: %v", orc.Breaches())
	}
	if !kinds[oracle.TLBreach] {
		t.Fatalf("cross-goroutine access of tl-claimed object not caught: %v", orc.Breaches())
	}
}

// A transaction running on a foreign goroutine violates TL even though the
// access is properly barriered — TL is a goroutine-confinement claim, not
// a barrier-discipline claim.
func TestOracleCatchesTransactionalCrossGoroutine(t *testing.T) {
	h := objmodel.NewHeap()
	cls := oneSlotClass(t, h)
	orc := oracle.Attach(h, oracle.Config{})

	h.ApplyManifest(manifestFor(hereSite(1, elide.ClassTL)))
	obj := h.New(cls)

	tr := trace.New(trace.Config{})
	tr.SetSink(orc)
	rt := stm.New(h, stmapi.CommonConfig{})
	rt.SetTracer(tr)

	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(obj, 0, 7)
			return nil
		})
	}()
	<-done

	var tl bool
	for _, b := range orc.Breaches() {
		if b.Kind == oracle.TLBreach && b.Txn != 0 {
			tl = true
			if b.AllocG == b.AccessG {
				t.Fatalf("breach reports same alloc/access goroutine: %s", b)
			}
		}
		if b.Kind == oracle.NAITBreach {
			t.Fatalf("tl-only claim produced a nait breach: %s", b)
		}
	}
	if !tl {
		t.Fatalf("transactional cross-goroutine access not caught: %v", orc.Breaches())
	}
}

// A workload that respects its manifest must leave the oracle silent: the
// nait object crosses goroutines only after proper publication through a
// public parent, and the tl object stays transactional on its allocating
// goroutine.
func TestOracleCleanRunStaysSilent(t *testing.T) {
	h := objmodel.NewHeap()
	cls := oneSlotClass(t, h)
	box := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "Box",
		Fields: []objmodel.Field{{Name: "head", IsRef: true}},
	})
	orc := oracle.Attach(h, oracle.Config{})

	h.ApplyManifest(manifestFor(
		hereSite(3, elide.ClassNAIT),
		hereSite(3, elide.ClassTL),
	))
	naitObj := h.New(cls)
	tlObj := h.New(cls)

	tr := trace.New(trace.Config{})
	tr.SetSink(orc)
	rt := stm.New(h, stmapi.CommonConfig{})
	rt.SetTracer(tr)

	bars := strong.New(h, false)
	bars.Tracer = tr

	// nait handoff: publish through a public parent (Figure 10b), then let
	// another goroutine read it with NT barriers.
	parent := h.NewPublic(box)
	bars.Write(naitObj, 0, 41)
	bars.WriteRef(parent, 0, naitObj.Ref())
	if naitObj.IsPrivate() {
		t.Fatalf("publication did not leave the private state")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		o := h.Get(bars.ReadRef(parent, 0))
		if got := bars.Read(o, 0); got != 41 {
			t.Errorf("handoff read = %d, want 41", got)
		}
	}()
	wg.Wait()

	// tl usage: transactions on the allocating goroutine only.
	for i := 0; i < 3; i++ {
		if err := rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(tlObj, 0, tx.Read(tlObj, 0)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	if err := orc.Err(); err != nil {
		t.Fatalf("clean run breached: %v", err)
	}
	if orc.Tracked() != 2 {
		t.Fatalf("Tracked = %d, want 2", orc.Tracked())
	}
}
