package txn

import "repro/internal/objmodel"

// Adaptive version-management granularity.
//
// A runtime configured with Granularity > 1 manages versions (undo-log
// spans, write-buffer spans) for several adjacent slots at once — cheaper
// bookkeeping, but the source of the Section 2.4 granular anomalies (GLU,
// GIR): an abort restores a whole span, clobbering a neighbour's
// concurrent non-transactional write. Adaptive granularity closes those
// anomalies on exactly the objects where they cost something: objects the
// tracer's hotspot table identifies as contended are promoted to
// slot-level (granularity-1) version management; objects that cool down
// are demoted back to the configured span. The multi-version runtime
// always buffers slot-granular, so promotion changes nothing there.
//
// The promotion set is an immutable table swapped copy-on-write: each
// transaction samples the table pointer once at begin and uses it for the
// whole attempt, so a promotion can never change the span arithmetic of an
// undo entry (or buffered span) already logged — the span-poisoning
// semantics of an in-flight transaction are exactly those it started with,
// and the transition is race-free by construction. Transactions beginning
// after the swap see the new granularity.

// granTable is the immutable promotion set. A nil *granTable behaves as
// the empty set, so runtimes that never promote pay one nil check.
type granTable struct {
	m map[uint64]struct{} // object handles promoted to slot granularity
}

func (t *granTable) promoted(h uint64) bool {
	if t == nil {
		return false
	}
	_, ok := t.m[h]
	return ok
}

// Span returns the version-management granularity in effect for o in this
// attempt: 1 for promoted objects, the configured span otherwise.
func (tx *Txn) Span(o *objmodel.Object) int {
	g := tx.k.cfg.Granularity
	if g > 1 && tx.gran.promoted(uint64(o.Ref())) {
		return 1
	}
	return g
}

// PromoteHotSites pre-seeds the promotion table from an elision manifest:
// objects allocated at a site the manifest marks hot get slot-level records
// from birth instead of waiting for the hotspot attribution to notice them.
// The observer only fires for manifest-matched allocations, so this costs
// nothing when no manifest is loaded. Runtimes with span granularity call it
// once from New.
func (k *Kernel) PromoteHotSites() {
	k.Heap.AddAllocObserver(func(o *objmodel.Object, site *objmodel.ManifestSite) {
		if site.Hot && site.Granularity == "slot" {
			k.PromoteObject(o)
		}
	})
}

// editGran applies edit to a copy of the promotion set and swaps it in.
// edit reports whether it changed anything; an unchanged table is not
// swapped.
func (k *Kernel) editGran(edit func(m map[uint64]struct{}) bool) bool {
	k.granMu.Lock()
	defer k.granMu.Unlock()
	old := k.granTab.Load()
	m := make(map[uint64]struct{})
	if old != nil {
		for h := range old.m {
			m[h] = struct{}{}
		}
	}
	if !edit(m) {
		return false
	}
	k.granTab.Store(&granTable{m: m})
	return true
}

// PromoteObject switches o to slot-level version management for
// transactions beginning after the call. Reports whether the object was
// newly promoted. Promotion only has an effect on runtimes configured
// with Granularity > 1.
func (k *Kernel) PromoteObject(o *objmodel.Object) bool {
	h := uint64(o.Ref())
	changed := k.editGran(func(m map[uint64]struct{}) bool {
		if _, ok := m[h]; ok {
			return false
		}
		m[h] = struct{}{}
		return true
	})
	if changed {
		k.Stats.GranPromotions.AddShard(int(h), 1)
	}
	return changed
}

// DemoteObject returns o to the configured span granularity for
// transactions beginning after the call. Reports whether the object was
// previously promoted.
func (k *Kernel) DemoteObject(o *objmodel.Object) bool {
	h := uint64(o.Ref())
	changed := k.editGran(func(m map[uint64]struct{}) bool {
		if _, ok := m[h]; !ok {
			return false
		}
		delete(m, h)
		return true
	})
	if changed {
		k.Stats.GranDemotions.AddShard(int(h), 1)
	}
	return changed
}

// AdaptGranularity reconciles the promotion set with the tracer's hotspot
// table: the maxHot hottest objects (by HotspotEntry.Score) are promoted,
// everything else currently promoted is demoted. Returns the number of
// promotions and demotions performed. Callers run it periodically (there
// is no background goroutine — policy cadence belongs to the driver). A
// runtime without a tracer, or with maxHot <= 0, demotes everything.
func (k *Kernel) AdaptGranularity(maxHot int) (promoted, demoted int) {
	want := make(map[uint64]struct{})
	if tr := k.tracer.Load(); tr != nil && maxHot > 0 {
		for _, e := range tr.Hot().Top(maxHot) {
			if e.Score() > 0 {
				want[e.Obj] = struct{}{}
			}
		}
	}
	k.editGran(func(m map[uint64]struct{}) bool {
		for h := range m {
			if _, keep := want[h]; !keep {
				delete(m, h)
				demoted++
			}
		}
		for h := range want {
			if _, ok := m[h]; !ok {
				m[h] = struct{}{}
				promoted++
			}
		}
		return promoted+demoted > 0
	})
	if promoted > 0 {
		k.Stats.GranPromotions.AddShard(0, int64(promoted))
	}
	if demoted > 0 {
		k.Stats.GranDemotions.AddShard(0, int64(demoted))
	}
	return promoted, demoted
}
