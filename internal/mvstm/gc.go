// Version-chain installation and reclamation for the multi-version runtime.
//
// A version is dead once no live transaction's snapshot can reach it: if W
// is the smallest begin snapshot over all in-flight transactions (clamped
// by the current clock), every object needs at most one version at or below
// W — the newest such version is what a W-snapshot reads; everything older
// is unreachable. A chain is pruned where it grows: the committer that
// pushes a node, holding the object's record, drops what the watermark has
// passed (install): a chain is one node long on an object written less often
// than the watermark moves and is cut back every Config.GCEvery commits on a
// hotter one, with no separate sweep (GC does one for tests and tooling).
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
// first install after it finishes prunes past its snapshot.
//
// The same argument covers every later transaction, so a watermark stays
// valid for as long as the runtime lives: rt.watermark only rises (CAS-max),
// and pruning against a cached value is merely conservative. Each descriptor
// refreshes the cache every Config.GCEvery of its own writing commits, so
// refreshes scale with the commit rate and transactions that share no object
// share no counter either.
//
// One pruner per chain: only the holder of an object's record pushes on its
// chain or severs it — a committer, or GC holding the record anonymously —
// which keeps VersionsInstalled - VersionsGCd equal to the nodes on chains.
//
// A dead head is rewritten in place: an install with sv at or under its
// watermark w stores sv and the pre-image into the head it found instead of
// allocating the node that replaces it. (What hung below is severed and left
// to Go's collector; there is no free list.) Only an object's first install
// and installs with sv > w allocate. So a node is not immutable while
// reachable, and what makes that safe is the proof above: every transaction R
// live now or beginning later has rv_R >= w. snapshotRead loads the head in
// two places:
//
//   - Record Shared(ver) with ver > rv_R, then the walk. R is pinned, so a
//     committer that acquires after that load has sv >= ver > rv_R >= w and
//     pushes a fresh node; what it may sever lies below the newest node at or
//     under w, and R reads that node or one above it. A committer that
//     acquired before the load has released, and its stores happen before R's
//     load of the record.
//   - Record Exclusive, then the probe head.TS > rv_R. A holder that rewrites
//     the head has sv <= w, and a node's TS only rises (record versions do),
//     so old TS and new are both at most sv <= w <= rv_R: the probe is false
//     either way and R waits for the release without touching Vals. If the
//     probe is true, any holder while that node is the head has
//     sv > head.TS > rv_R >= w and only pushes over it, and a node under the
//     head is never written again: R walks an immutable chain.
//
// GC() prunes under the anonymous claim and rewrites nothing.
package mvstm

import (
	"repro/internal/objmodel"
	"repro/internal/txn"
	"repro/internal/txrec"
)

// Watermark computes the version-reclamation horizon — the smallest live
// begin snapshot, or the current clock when no transaction is in flight —
// raises the cached watermark to it, and returns the cached value.
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
	for {
		cur := rt.watermark.Load()
		if cur >= w {
			w = cur // a concurrent computation got further; its value holds too
			break
		}
		if rt.watermark.CompareAndSwap(cur, w) {
			break
		}
	}
	if c := rt.Clock.Load(); c >= w {
		rt.Stats.WatermarkLag.Store(int64(c - w))
	}
	return w
}

// pruneHorizon returns the watermark this commit's installs prune against:
// the cached one, and on the descriptor's countdown a fresh one, which the
// installs then also sweep their chains against (install); 0, below every
// timestamp, when pruning at install is off.
func (tx *Txn) pruneHorizon() (w uint64, sweep bool) {
	every := tx.rt.cfg.GCEvery
	if every < 0 {
		return 0, false
	}
	if tx.refreshIn--; tx.refreshIn < 0 {
		tx.refreshIn = every - 1
		return tx.rt.Watermark(), true
	}
	return tx.rt.watermark.Load(), false
}

// install saves the image o's slots hold — its committed state since sv, the
// version the record was acquired at, which the write-back is about to
// overwrite — as the head of o's chain, and prunes the chain against
// watermark w. The caller holds o's record.
//
// At or under the watermark the saved image is the one a w-snapshot reads and
// the whole old chain is dead (o.MVLen says how long it was): its head is
// rewritten in place and whatever hung below it is cut off unread. That is
// every install on an object written less often than the watermark is
// refreshed. Above it a fresh node is linked over the old head, and only a
// sweep install (one in Config.GCEvery) looks for the newest node at or
// under w to sever below it: on an object that hot the nodes were pushed
// from other processors, and reading them at every install costs more than
// keeping them a few commits longer.
func (tx *Txn) install(o *objmodel.Object, sv, w uint64, sweep bool) {
	head := o.MVHead.Load()
	n := head
	if sv <= w && head != nil {
		if o.MVLen > 1 {
			head.SetPrev(nil)
		}
		tx.NReclaimed += int64(o.MVLen) // the old head counts: reclaimed here, installed below
		o.MVLen = 1
	} else {
		n = objmodel.NewMVVersion(len(o.Slots))
		if head != nil {
			n.SetPrev(head)
			if sweep {
				tx.NReclaimed += int64(prune(o, head, w))
			}
		}
		o.MVLen++
	}
	n.TS.Store(sv)
	for i := range n.Vals {
		n.Vals[i].Store(o.LoadSlot(i))
	}
	if n != head {
		o.MVHead.Store(n)
	}
	tx.NInstalled++
}

// prune severs o's chain from head below its newest node at or under
// watermark w — a w-snapshot still reads that one — and returns the number
// of nodes severed. The caller holds o's record.
func prune(o *objmodel.Object, head *objmodel.MVVersion, w uint64) int {
	for keep := head; keep != nil; keep = keep.Prev() {
		if keep.TS.Load() <= w {
			n := 0
			for dead := keep.Prev(); dead != nil; dead = dead.Prev() {
				n++
			}
			if n > 0 {
				keep.SetPrev(nil)
				o.MVLen -= n
			}
			return n
		}
	}
	return 0 // the chain bottoms out above w
}

// GC walks the whole heap and prunes every object's version chain against
// the current watermark, returning the number of versions reclaimed. Tests
// and operational tooling call it; the runtime itself prunes at install. It
// holds each record it prunes under exclusive-anonymous, as a
// non-transactional writer would, and skips the ones it cannot take: their
// holder prunes.
func (rt *Runtime) GC() int {
	w := rt.Watermark()
	reclaimed := 0
	for i, n := 1, rt.Heap.Len(); i <= n; i++ {
		o := rt.Heap.TryGet(objmodel.Ref(i))
		if o == nil || o.MVHead.Load() == nil {
			continue
		}
		rec := o.Rec.Load()
		if !txrec.IsShared(rec) || !o.Rec.CompareAndSwap(rec, txrec.MakeExclusiveAnon(txrec.Version(rec))) {
			continue
		}
		reclaimed += prune(o, o.MVHead.Load(), w)
		o.Rec.Store(rec)
	}
	if reclaimed > 0 {
		rt.Stats.VersionsGCd.AddShard(0, int64(reclaimed))
	}
	return reclaimed
}
