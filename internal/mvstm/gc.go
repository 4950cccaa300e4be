// Version-chain garbage collection for the multi-version runtime.
//
// A version is dead once no live transaction's snapshot can reach it: if W
// is the smallest begin snapshot over all in-flight transactions (clamped
// by the current clock), every object needs at most one version at or below
// W — the newest such version is what a W-snapshot reads; everything older
// is unreachable and the chain is severed below it.
//
// The watermark is computed against the same sharded registry the reaper
// scans, through each descriptor's snap pin. The pin protocol makes the
// scan race-free without locks:
//
//   - a descriptor's snap is 1 (the lowest possible snapshot) BEFORE the
//     registry publishes it — stored at allocation and again on every
//     return to the pool — and begin refines it to the real snapshot AFTER
//     reading the clock.
//   - The collector reads the clock FIRST, then scans pins.
//
// So if the collector misses a transaction (sees no pin, or the slot is
// still empty), that transaction's pin store had not happened when the scan
// read it — which means its clock read happens after the collector's, so
// its rv is at least the collector's clock sample, which bounds W from
// above. Either the pin is seen and lowers W, or the snapshot provably sits
// at or above W. A long-running snapshot reader therefore pins exactly the
// history it may still read (premature reclaim is impossible), and the
// first collection after it finishes resumes past its snapshot.
package mvstm

import (
	"repro/internal/objmodel"
	"repro/internal/txn"
)

// Watermark returns the version-reclamation horizon: the smallest live
// begin snapshot, or the current clock when no transaction is in flight.
func (rt *Runtime) Watermark() uint64 {
	// Clock first, pins second — see the package comment for why this
	// ordering makes a missed pin harmless.
	w := rt.Clock.Load()
	rt.ForEach(func(k *txn.Txn) bool {
		if s := k.Self().(*Txn).snap.Load(); s < w {
			w = s
		}
		return true
	})
	rt.watermark.Store(w)
	if c := rt.Clock.Load(); c >= w {
		rt.Stats.WatermarkLag.Store(int64(c - w))
	}
	return w
}

// pruneObject severs o's version chain below watermark w: the newest
// version at or below w is kept (a w-snapshot still reads it), everything
// older is cut loose. Returns the number of versions reclaimed. Callers
// hold rt.gcMu — a single pruner per chain keeps the counts exact, and the
// severed tail stays reachable by readers that already walked past the cut
// (see objmodel.MVVersion).
func pruneObject(o *objmodel.Object, w uint64) int {
	keep := o.MVHead.Load()
	if keep == nil {
		return 0
	}
	for keep.TS > w {
		next := keep.Prev()
		if next == nil {
			return 0 // chain bottoms out above w: nothing is reclaimable
		}
		keep = next
	}
	// keep is the newest version at or below w. Count and sever its tail.
	n := 0
	for v := keep.Prev(); v != nil; v = v.Prev() {
		n++
	}
	if n > 0 {
		keep.SetPrev(nil)
	}
	return n
}

// maybeCollect runs an inline collection every cfg.GCEvery writing commits,
// pruning the chains the committing transaction just extended. Write-set
// objects are the ones growing, so collecting at the point of growth keeps
// chains short without a background thread; a full-heap pass is available
// through GC.
func (rt *Runtime) maybeCollect(tx *Txn) {
	if rt.cfg.GCEvery < 0 {
		return
	}
	if rt.gcTick.Add(1)%uint64(rt.cfg.GCEvery) != 0 {
		return
	}
	w := rt.Watermark()
	reclaimed := 0
	rt.gcMu.Lock()
	for _, o := range tx.Objs {
		reclaimed += pruneObject(o, w)
	}
	rt.gcMu.Unlock()
	if reclaimed > 0 {
		rt.Stats.VersionsGCd.AddShard(int(tx.ID()), int64(reclaimed))
	}
}

// GC walks the whole heap and prunes every object's version chain against
// the current watermark, returning the number of versions reclaimed. Tests
// and operational tooling call it directly; the runtime itself collects
// incrementally at commit (see maybeCollect).
func (rt *Runtime) GC() int {
	w := rt.Watermark()
	reclaimed := 0
	rt.gcMu.Lock()
	for i, n := 1, rt.Heap.Len(); i <= n; i++ {
		if o := rt.Heap.TryGet(objmodel.Ref(i)); o != nil {
			reclaimed += pruneObject(o, w)
		}
	}
	rt.gcMu.Unlock()
	if reclaimed > 0 {
		rt.Stats.VersionsGCd.AddShard(0, int64(reclaimed))
	}
	return reclaimed
}
