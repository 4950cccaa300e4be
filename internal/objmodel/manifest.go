// Barrier-manifest support: the heap can load an elision manifest produced
// by `stmvet elide` (internal/elide) and use it to pick the birth state of
// each allocation. Sites the inter-procedural NAIT/TL analyses proved safe
// are born Private (the all-ones record of Figure 10) even when dynamic
// escape analysis is off, so their objects ride the zero-synchronization
// fast paths. Allocation observers (the soundness oracle) learn of every
// matched allocation.
//
// Allocation sites are matched by "basename.go:line" of the frame that
// called Heap.New/NewArray, resolved with runtime.Callers (inline-aware).
// NewPublic is deliberately exempt: it exists to force shared birth.

package objmodel

import (
	"path/filepath"
	"runtime"

	"repro/internal/elide"
)

// SiteClass is the runtime-side mirror of the elide.Class* classifications.
type SiteClass uint8

// Site classifications (see internal/elide for the guarantees each makes).
const (
	SiteMixed  SiteClass = iota // no elision
	SiteNAIT                    // never accessed transactionally
	SiteTL                      // never crosses goroutines
	SiteNAITTL                  // both
)

// String returns the elide-package spelling of the class.
func (c SiteClass) String() string {
	switch c {
	case SiteNAIT:
		return elide.ClassNAIT
	case SiteTL:
		return elide.ClassTL
	case SiteNAITTL:
		return elide.ClassNAITTL
	}
	return elide.ClassMixed
}

// Elidable reports whether objects from this site are born private.
func (c SiteClass) Elidable() bool { return c != SiteMixed }

// ManifestSite is one loaded allocation-site entry.
type ManifestSite struct {
	ID    string
	Class SiteClass
}

// AllocObserver is notified of every allocation that matched a manifest
// site, synchronously on the allocating goroutine, after the object is
// installed in the heap. The soundness oracle uses it to learn the
// object→site mapping and the allocating goroutine.
type AllocObserver func(o *Object, site *ManifestSite)

type manifestIndex struct {
	sites map[string]*ManifestSite
	// naitSites/tlSites cache classification counts for introspection.
	elidable int
}

// ApplyManifest installs an elision manifest on the heap. Subsequent
// New/NewArray calls whose call site matches an elidable entry allocate
// private-born objects. Apply before the workload allocates; objects
// allocated earlier keep their birth state.
func (h *Heap) ApplyManifest(m *elide.Manifest) {
	idx := &manifestIndex{sites: make(map[string]*ManifestSite, len(m.Sites))}
	for id, s := range m.Index() {
		ms := &ManifestSite{ID: id}
		switch s.Class {
		case elide.ClassNAIT:
			ms.Class = SiteNAIT
		case elide.ClassTL:
			ms.Class = SiteTL
		case elide.ClassNAITTL:
			ms.Class = SiteNAITTL
		default:
			ms.Class = SiteMixed
		}
		if ms.Class.Elidable() {
			idx.elidable++
		}
		idx.sites[id] = ms
	}
	h.manifest.Store(idx)
}

// ClearManifest removes any installed manifest.
func (h *Heap) ClearManifest() { h.manifest.Store(nil) }

// HasManifest reports whether an elision manifest is installed. Strong
// barriers consult this (one atomic load) to keep the Figure 10 private
// fast paths and publication active even when DEA is off: a manifest can
// mint private objects, and a private record must never reach the generic
// write barrier's anonymous acquisition.
func (h *Heap) HasManifest() bool { return h.manifest.Load() != nil }

// MintsPrivate reports whether the heap can mint private-born objects:
// under dynamic escape analysis (AllocPrivate) or with an elision manifest
// loaded. Every runtime asks it where a transaction stores a reference into
// a public container, which is then a publication point (Section 4): the
// referenced subgraph escapes there, or a private object becomes reachable
// by other threads with every barrier skipping synchronization on it.
func (h *Heap) MintsPrivate() bool { return h.AllocPrivate || h.HasManifest() }

// ManifestElidable returns the number of distinct elidable sites loaded.
func (h *Heap) ManifestElidable() int {
	idx := h.manifest.Load()
	if idx == nil {
		return 0
	}
	return idx.elidable
}

// AddAllocObserver registers an observer for manifest-matched allocations.
// Observers cannot be removed; register before the workload starts.
func (h *Heap) AddAllocObserver(f AllocObserver) {
	h.obsMu.Lock()
	defer h.obsMu.Unlock()
	cur := h.allocObs.Load()
	var next []AllocObserver
	if cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, f)
	h.allocObs.Store(&next)
}

// manifestSite resolves the allocation site of the caller of New/NewArray.
// Must be invoked directly from New/NewArray (the skip count assumes
// exactly one intermediate frame). Returns nil when no manifest is loaded
// or the site is not classified.
func (h *Heap) manifestSite() *ManifestSite {
	idx := h.manifest.Load()
	if idx == nil {
		return nil
	}
	// Skip runtime.Callers, manifestSite, and New/NewArray itself; the
	// recorded PC is the allocation site. CallersFrames expands inlined
	// frames, innermost first, so the source-level call site wins even
	// when the allocating function was inlined into its caller.
	var pcs [1]uintptr
	if runtime.Callers(3, pcs[:]) == 0 {
		return nil
	}
	fr, _ := runtime.CallersFrames(pcs[:]).Next()
	if fr.File == "" {
		return nil
	}
	return idx.sites[elide.SiteID(filepath.Base(fr.File), fr.Line)]
}

// notifyAlloc fires the allocation observers for a manifest-matched
// allocation, after the object is installed.
func (h *Heap) notifyAlloc(o *Object, site *ManifestSite) {
	if obs := h.allocObs.Load(); obs != nil {
		for _, f := range *obs {
			f(o, site)
		}
	}
}
