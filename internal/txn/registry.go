package txn

import (
	"sync"
	"sync/atomic"
)

// regSlots is the capacity of the fixed active-transaction slot array.
// Power of two. More than regSlots concurrently active transactions spill
// into a sync.Map overflow (correct but slower; unreachable in the paper's
// thread sweeps).
const regSlots = 256

// regSlot is one registry slot, padded to a cache line so neighbouring
// claims and releases do not false-share.
type regSlot struct {
	p atomic.Pointer[Txn]
	_ [56]byte
}

// registry tracks in-flight transaction descriptors. Claiming is a CAS
// into an id-hashed slot with linear probing; releasing is a single nil
// store, so begin/end cost one CAS and one store. Scans (quiescence,
// ActiveTransactions, the reaper, the multi-version watermark) walk the
// array without allocating.
type registry struct {
	slots    [regSlots]regSlot
	overflow sync.Map // id -> *Txn, only when the slot array is full
}

func (r *registry) add(tx *Txn) {
	h := int(tx.id)
	for i := 0; i < regSlots; i++ {
		s := &r.slots[(h+i)&(regSlots-1)]
		if s.p.Load() == nil && s.p.CompareAndSwap(nil, tx) {
			tx.slot = (h + i) & (regSlots - 1)
			return
		}
	}
	tx.slot = -1
	r.overflow.Store(tx.id, tx)
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
	for i := range r.slots {
		if tx := r.slots[i].p.Load(); tx != nil {
			if !f(tx) {
				return
			}
		}
	}
	r.overflow.Range(func(_, v any) bool { return f(v.(*Txn)) })
}

// findStamp returns the live descriptor whose current incarnation ID is id,
// or nil. Descriptors are pooled, so a pointer read from a slot may belong
// to a later transaction by the time its stamp is loaded; the stamp check
// filters that race (IDs are never reused), making the lookup safe — at
// worst it misses a departing transaction, which callers treat as "owner no
// longer active".
func (r *registry) findStamp(id uint64) *Txn {
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
