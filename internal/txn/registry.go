package txn

import (
	"sync"
	"sync/atomic"
)

// regSlots is the capacity of the fixed active-transaction slot array.
// More than regSlots concurrently active transactions spill into a sync.Map
// overflow (correct but slower; unreachable in the paper's thread sweeps).
const regSlots = 256

// regSlot is one registry slot, padded to a cache line so neighbouring
// claims and releases do not false-share: the pointer every scan reads, and
// the statistics batch of whoever holds the slot (stats.go), allocated by
// the slot's first claim and written only by its holder, on lines of its
// own so a holder's flush is not a miss for a scan. full is set while the
// batch holds unpublished flushes, so that Stats claims only the free slots
// it has something to drain from.
type regSlot struct {
	p    atomic.Pointer[Txn]
	b    *batch
	full atomic.Bool
	_    [44]byte
}

// registry tracks in-flight transaction descriptors, packed at the bottom of
// the slot array: a claim takes the descriptor's previous slot if it is free,
// else the lowest free one, so G goroutines running transactions keep about
// the first G slots whatever their IDs (nothing reads a slot index as a hash
// of the ID). hi, a high-water mark over every slot a claim has tried, is
// raised before the claiming CAS, and scans (quiescence, ActiveTransactions,
// ReapDead, findStamp, the multi-version horizon and commit gate) walk
// [0, hi) only, without allocating. Releasing is a single nil store.
//
// A claim at or past a scan's hi cannot be missed unsafely. It raised hi after
// the scan loaded it, so its descriptor becomes reachable after the scan
// began, exactly like a claim of a low slot the scan had already passed, which
// every scanner tolerates: a record's owner registered before it acquired the
// record a findStamp caller loaded; a quiescing committer's grace period
// covers only attempts that may have touched what it acquired first; a
// multi-version descriptor pins low before registering and reads its snapshot
// after, above the horizon scan's earlier clock sample; a committer raises its
// gate flag after registering, so after a switch's token CAS, and sees the
// token; and the next ReapDead sweep sees an orphan this one missed.
type registry struct {
	_        [64]byte // hi shares no line with what precedes the registry
	hi       atomic.Int32
	_        [60]byte
	slots    [regSlots]regSlot
	overflow sync.Map // id -> *Txn, only when the slot array is full
}

func (r *registry) add(tx *Txn) {
	if tx.slot >= 0 && r.claim(tx.slot, tx) {
		return
	}
	for i := range regSlots {
		if r.claim(i, tx) {
			return
		}
	}
	if tx.spill == nil {
		tx.spill = new(batch)
	}
	tx.slot, tx.batch = -1, tx.spill
	r.overflow.Store(tx.id, tx)
}

// claim registers tx in slot i if it is free, raising hi over i first.
func (r *registry) claim(i int, tx *Txn) bool {
	s := &r.slots[i]
	if s.p.Load() != nil {
		return false
	}
	for h := r.hi.Load(); int(h) <= i; h = r.hi.Load() {
		if r.hi.CompareAndSwap(h, int32(i+1)) {
			break
		}
	}
	if !s.p.CompareAndSwap(nil, tx) {
		return false
	}
	if s.b == nil {
		s.b = new(batch)
	}
	tx.slot, tx.batch = i, s.b
	return true
}

func (r *registry) remove(tx *Txn) {
	if tx.slot >= 0 {
		r.slots[tx.slot].p.Store(nil)
		return
	}
	r.overflow.Delete(tx.id)
}

// forEach calls f for every registered descriptor until f returns false.
func (r *registry) forEach(f func(*Txn) bool) {
	for i, n := 0, int(r.hi.Load()); i < n; i++ {
		if tx := r.slots[i].p.Load(); tx != nil && !f(tx) {
			return
		}
	}
	r.overflow.Range(func(_, v any) bool { return f(v.(*Txn)) })
}

// drain publishes the batch of every free full slot in [0, hi) to t: it
// claims the slot with idle, publishes, and frees it again. Busy slots and
// empty ones are skipped. A holder sets full before it frees the slot, so a
// drain that finds the slot free finds the mark. While idle sits in a slot
// the kernel's scans see it, so it looks idle to each: status not Active,
// flight even, stamp 0, not dead. Kernel.ForEach, the runtimes' scan, skips
// it.
func (r *registry) drain(idle *Txn, t *totals) {
	for i, n := 0, int(r.hi.Load()); i < n; i++ {
		s := &r.slots[i]
		if s.full.Load() && s.p.Load() == nil && s.p.CompareAndSwap(nil, idle) {
			t.publish(s.b)
			s.full.Store(false)
			s.p.Store(nil)
		}
	}
}

// findStamp returns the live descriptor whose current incarnation ID is id,
// or nil. Descriptors are pooled, so a pointer read from a slot may belong
// to a later transaction by the time its stamp is loaded; the stamp check
// filters that race (IDs are never reused), making the lookup safe — at
// worst it misses a departing transaction, which callers treat as "owner no
// longer active". IDs start at 1: 0 is the idle sentinel's stamp and finds
// nothing.
func (r *registry) findStamp(id uint64) *Txn {
	if id == 0 {
		return nil
	}
	var found *Txn
	r.forEach(func(tx *Txn) bool {
		if tx.stamp.Load() == id {
			found = tx
			return false
		}
		return true
	})
	return found
}
