// Version-chain installation and reclamation for the multi-version runtime.
//
// A version is dead once no live transaction's snapshot can reach it: if W
// is the smallest begin snapshot over all in-flight transactions (clamped
// by the current clock), every object needs at most one version at or below
// W — the newest such version is what a W-snapshot reads; everything older
// is unreachable. A chain is pruned where it grows: the committer that
// pushes a node, holding the object's record, drops what the watermark has
// passed (install): a chain is one node long unless a live snapshot below
// the object's last write holds it longer, and is cut back every
// gcEvery commits once one has, with no separate sweep (GC does one
// for tests and tooling).
//
// The watermark is computed against the same registry ReapDead sweeps,
// through each descriptor's snap pin. The pin protocol makes the scan
// race-free without locks:
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
// An attempt that rolled back reads nothing until it begins again, so
// Rollback unpins the descriptor (snap = maxSnapshot) for the wait before
// its retry, and that begin pins in three steps: snap = the cached
// watermark, then rv reloaded from the clock, then snap = rv. A scan that
// reads the pin before the low store has sampled the clock before the
// reload, so the new rv is at least its sample; one that reads it after
// sees the watermark or rv, both at or below rv (a watermark never passes
// the clock). Either way the new snapshot sits at or above W, as in the
// first case. A first attempt begins from the pool's snap of 1.
//
// A committed attempt reads nothing more, so Exit unpins the descriptor
// the same way as it leaves the commit gate, before the commit waits for its
// redo record to be durable or for a grace period: neither wait holds history
// back. Its next pin is the pool's: putTxn unregisters the descriptor before
// Reset stores snap = 1, and the registry publishes it again only after that.
//
// The same argument covers every later transaction, so a watermark stays
// valid for as long as the runtime lives: rt.watermark only rises (CAS-max),
// and pruning against a cached value is merely conservative. Each descriptor
// refreshes the cache every gcEvery of its own writing commits, so
// refreshes scale with the commit rate and transactions that share no object
// share no counter either.
//
// The cache is too old for a hot object, whose sv (its last write) is a
// commit or two back. A commit whose install finds a head with sv above the
// horizon it holds computes the horizon afresh, once (horizon: the same
// clock-then-pins scan, not published), and prunes the rest of its installs
// against that. Installs with sv at or under the cached watermark never scan,
// which is every install on an object written less often than the cache is
// refreshed.
//
// One pruner per chain: only the holder of an object's record pushes on its
// chain or severs it — a committer, or GC holding the record anonymously —
// which keeps VersionsInstalled - VersionsGCd equal to the nodes on chains.
//
// A dead head is rewritten in place: an install with sv at or under its
// horizon w (the cached watermark or the commit's fresh horizon, both from
// the scan above) stores sv and the pre-image into the head it found
// instead of allocating the node that replaces it. (What hung below is
// severed and left to Go's collector; there is no free list.) Only an
// object's first install and installs with sv > w allocate. So a node is
// not immutable while reachable, and what makes that safe is the proof
// above: every transaction R live now or beginning later has rv_R >= w (an
// attempt waiting to retry reads nothing, and its retry begins later; a
// committed one reads nothing more).
// snapshotRead loads the head in two places:
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
// An install stores only the slots where the node's image differs from the
// object's: a rewritten head keeps the slots the commits since its last
// rewrite left alone, and a fresh node its zeros. That writes the same final
// image a full copy does, so it adds no clause to the proof: no snapshot that
// can read the Vals of a head being rewritten is live, and a fresh node is
// unpublished until MVHead.Store. Rewriting the head of a large object of
// which few slots changed since its last rewrite thus costs two loads per slot
// and a store per changed slot, not a store per slot.
//
// GC() prunes under the anonymous claim and rewrites nothing.
package mvstm

import (
	"repro/internal/objmodel"
	"repro/internal/txn"
	"repro/internal/txrec"
)

// horizon is the version-reclamation horizon now: the smallest pinned
// snapshot over registered descriptors, or the current clock when none is
// lower. Clock first, pins second — see the package comment for why this
// ordering makes a missed pin harmless.
func (rt *Runtime) horizon() uint64 {
	w := rt.Clock.Load()
	rt.ForEach(func(k *txn.Txn) bool {
		if s := k.Self().(*Txn).snap.Load(); s < w {
			w = s
		}
		return true
	})
	return w
}

// Watermark computes the horizon, raises the cached watermark to it, and
// returns the cached value.
func (rt *Runtime) Watermark() uint64 {
	w := rt.horizon()
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
		rt.SetWatermarkLag(int64(c - w))
	}
	return w
}

// pruning is what one writing commit's installs prune against.
type pruning struct {
	w     uint64 // no snapshot live now or taken later is below it
	fresh bool   // w was computed during this commit, or pruning is off: never recomputed
	sweep bool   // w was published on the descriptor's countdown: installs also sweep
}

// pruneHorizon returns what this commit's installs prune against: the cached
// watermark, and on the descriptor's countdown a freshly published one,
// which the installs then also sweep their chains against (install); 0,
// below every timestamp, when pruning at install is off.
func (tx *Txn) pruneHorizon() pruning {
	every := tx.rt.gcEvery
	if every < 0 {
		return pruning{fresh: true}
	}
	if tx.refreshIn--; tx.refreshIn < 0 {
		tx.refreshIn = every - 1
		return pruning{w: tx.rt.Watermark(), fresh: true, sweep: true}
	}
	return pruning{w: tx.rt.watermark.Load()}
}

// install saves the image o's slots hold — its committed state since sv, the
// version the record was acquired at, which the write-back is about to
// overwrite — as the head of o's chain, and prunes the chain against p. The
// caller holds o's record.
//
// A head with sv above a cached watermark is a hot object's: p is brought up
// to the horizon once, for this install and the commit's later ones. At or
// under it the saved image is the one a w-snapshot reads and the whole old
// chain is dead (o.MVLen says how long it was): its head is rewritten in
// place, in the slots whose value differs, and whatever hung below it is cut
// off unread. Above it a live snapshot may read the head, so a fresh node is
// linked over it, and only a sweep install (one in gcEvery) looks for the
// newest node at or under w to sever below it: on such an object the nodes
// were pushed from other processors, and reading them at every install costs
// more than keeping them a few commits longer.
func (tx *Txn) install(o *objmodel.Object, sv uint64, p *pruning) {
	head := o.MVHead.Load()
	if head != nil && sv > p.w && !p.fresh {
		p.w, p.fresh = max(p.w, tx.rt.horizon()), true
	}
	n := head
	if sv <= p.w && head != nil {
		if o.MVLen > 1 {
			head.SetPrev(nil)
		}
		tx.NReclaimed += int64(o.MVLen) // the old head counts: reclaimed here, installed below
		o.MVLen = 1
	} else {
		n = objmodel.NewMVVersion(len(o.Slots))
		if head != nil {
			n.SetPrev(head)
			if p.sweep {
				tx.NReclaimed += int64(prune(o, head, p.w))
			}
		}
		o.MVLen++
	}
	n.TS.Store(sv)
	for i := range n.Vals {
		if v := o.LoadSlot(i); n.Vals[i].Load() != v {
			n.Vals[i].Store(v)
		}
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
	for i, n := 1, rt.Heap().Len(); i <= n; i++ {
		o := rt.Heap().TryGet(objmodel.Ref(i))
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
		rt.CountVersionsGCd(int64(reclaimed))
	}
	return reclaimed
}
