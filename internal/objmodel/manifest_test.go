package objmodel

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/elide"
	"repro/internal/txrec"
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

func TestManifestPrivateBirth(t *testing.T) {
	h := NewHeap()
	cls := h.MustDefineClass(ClassSpec{Name: "T", Fields: []Field{{Name: "x"}}})

	h.ApplyManifest(manifestFor(hereSite(1, elide.ClassNAIT)))
	private := h.New(cls)
	plain := h.New(cls) // line not in the manifest: default birth state

	if !private.IsPrivate() {
		t.Fatalf("manifest-classified allocation not born private: rec=%#x", private.Rec.Load())
	}
	if plain.IsPrivate() {
		t.Fatalf("unclassified allocation born private")
	}
	if !h.HasManifest() {
		t.Fatalf("HasManifest false after ApplyManifest")
	}
	if got := h.ManifestElidable(); got != 1 {
		t.Fatalf("ManifestElidable = %d, want 1", got)
	}
	h.ClearManifest()
	if h.HasManifest() {
		t.Fatalf("HasManifest true after ClearManifest")
	}
}

func TestManifestMixedSiteKeepsDefaultBirth(t *testing.T) {
	h := NewHeap()
	cls := h.MustDefineClass(ClassSpec{Name: "T", Fields: []Field{{Name: "x"}}})
	h.ApplyManifest(manifestFor(hereSite(1, elide.ClassMixed)))
	o := h.New(cls)
	if o.IsPrivate() {
		t.Fatalf("mixed site allocation born private")
	}
}

func TestManifestDoesNotOverrideNewPublic(t *testing.T) {
	h := NewHeap()
	h.AllocPrivate = true
	cls := h.MustDefineClass(ClassSpec{Name: "T", Fields: []Field{{Name: "x"}}})
	h.ApplyManifest(manifestFor(hereSite(1, elide.ClassNAITTL)))
	o := h.NewPublic(cls)
	if o.IsPrivate() {
		t.Fatalf("NewPublic yielded a private object under a manifest")
	}
	if w := o.Rec.Load(); w != txrec.MakeShared(1) {
		t.Fatalf("NewPublic rec = %#x, want shared v1", w)
	}
}

func TestManifestArrayAllocation(t *testing.T) {
	h := NewHeap()
	h.ApplyManifest(manifestFor(hereSite(1, elide.ClassTL)))
	arr := h.NewArray(8, false)
	if !arr.IsPrivate() {
		t.Fatalf("manifest-classified array not born private")
	}
}

func TestAllocObserverSeesSiteAndHotHint(t *testing.T) {
	h := NewHeap()
	cls := h.MustDefineClass(ClassSpec{Name: "T", Fields: []Field{{Name: "x"}}})
	h.ApplyManifest(manifestFor(hereSite(7, elide.ClassMixed)))

	var gotObj *Object
	var gotSite *ManifestSite
	h.AddAllocObserver(func(o *Object, s *ManifestSite) {
		gotObj, gotSite = o, s
	})
	o := h.New(cls)
	if gotObj != o {
		t.Fatalf("observer saw object %v, want %v", gotObj, o)
	}
	if gotSite == nil || gotSite.Class != SiteMixed {
		t.Fatalf("observer site = %+v, want a mixed site", gotSite)
	}
}

func TestManifestIndexCollisionDegradesToMixed(t *testing.T) {
	a := elide.Site{ID: "x.go:10", File: "x.go", Line: 10, Class: elide.ClassNAIT, Pkg: "p1"}
	b := elide.Site{ID: "x.go:10", File: "x.go", Line: 10, Class: elide.ClassTL, Pkg: "p2"}
	m := manifestFor(a, b)
	idx := m.Index()
	if got := idx["x.go:10"].Class; got != elide.ClassMixed {
		t.Fatalf("nait ∩ tl collision = %q, want mixed", got)
	}

	c := elide.Site{ID: "y.go:3", File: "y.go", Line: 3, Class: elide.ClassNAITTL}
	d := elide.Site{ID: "y.go:3", File: "y.go", Line: 3, Class: elide.ClassNAIT}
	idx = manifestFor(c, d).Index()
	if got := idx["y.go:3"].Class; got != elide.ClassNAIT {
		t.Fatalf("nait+tl ∩ nait collision = %q, want nait", got)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	m := manifestFor(
		elide.Site{ID: "a.go:1", File: "a.go", Line: 1, Class: elide.ClassNAIT, Pkg: "p"},
		elide.Site{ID: "b.go:2", File: "b.go", Line: 2, Class: elide.ClassMixed},
	)
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := elide.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sites) != 2 || got.Version != elide.Version {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Sites[0].ID != "a.go:1" || got.Sites[1].Class != elide.ClassMixed {
		t.Fatalf("round trip content mismatch: %+v", got.Sites)
	}
}
