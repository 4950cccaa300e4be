package strong_test

import (
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/analysis/oracle"
	"repro/internal/elide"
	"repro/internal/objmodel"
	"repro/internal/strong"
	"repro/internal/trace"
)

// siteBelow builds a manifest site for an allocation `delta` lines below
// the caller (external-test twin of manifest_test.go's allocSite).
func siteBelow(delta int, class string) elide.Site {
	_, file, line, _ := runtime.Caller(1)
	base := filepath.Base(file)
	return elide.Site{ID: elide.SiteID(base, line+delta), File: base, Line: line + delta, Class: class}
}

// The Figure 10b/11 publication walk, audited end to end: a private
// two-object subgraph built through the barrier fast paths escapes into a
// public container, the walk publishes both objects, and concurrent
// goroutines then hammer them through the full barriers — with the
// soundness oracle attached and the race detector (CI runs this test under
// -race) checking that the elided paths reintroduced no violation.
func TestPublishObjectWalkUnderOracle(t *testing.T) {
	h := objmodel.NewHeap()
	cell := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "Cell",
		Fields: []objmodel.Field{{Name: "f"}, {Name: "next", IsRef: true}},
	})
	orc := oracle.Attach(h, oracle.Config{})

	h.ApplyManifest(&elide.Manifest{
		Version: elide.Version, Tool: "test",
		Sites: []elide.Site{
			siteBelow(4, elide.ClassNAIT),
			siteBelow(4, elide.ClassNAIT),
		},
	})
	item := h.New(cell)
	child := h.New(cell)
	parent := h.NewPublic(cell)

	bars := strong.New(h, false)
	st := &strong.Stats{}
	bars.Stats = st
	bars.Tracer = trace.New(trace.Config{})
	bars.Tracer.SetSink(orc)

	// Build the private subgraph through the fast paths: a ref written into
	// a *private* object publishes nothing (Figure 10b fires only when the
	// container is public).
	bars.Write(child, 0, 99)
	bars.WriteRef(item, 1, child.Ref())
	if !item.IsPrivate() || !child.IsPrivate() {
		t.Fatalf("private-container writes left the private state: item=%v child=%v",
			item.IsPrivate(), child.IsPrivate())
	}
	if st.PrivateWrites.Load() < 2 {
		t.Fatalf("PrivateWrites = %d, want >= 2 (fast path not taken)", st.PrivateWrites.Load())
	}

	// Escape: the walk must publish the whole reachable subgraph, not just
	// the directly written reference.
	bars.WriteRef(parent, 1, item.Ref())
	if item.IsPrivate() {
		t.Fatalf("published item still private")
	}
	if child.IsPrivate() {
		t.Fatalf("publish walk did not reach the nested private object")
	}

	// Now public: goroutines race NT reads and writes through the barriers.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				it := h.Get(bars.ReadRef(parent, 1))
				bars.Write(it, 0, uint64(g*1000+i))
				ch := h.Get(bars.ReadRef(it, 1))
				if got := bars.Read(ch, 0); got != 99 {
					t.Errorf("nested read = %d, want 99", got)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Everything above is what the nait classification promises: no
	// transactional access ever, sharing only after publication.
	if err := orc.Err(); err != nil {
		t.Fatalf("oracle breached on a manifest-respecting run: %v", err)
	}
	if orc.Tracked() != 2 {
		t.Fatalf("Tracked = %d, want 2", orc.Tracked())
	}
}
