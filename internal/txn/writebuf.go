package txn

import "repro/internal/objmodel"

// BufEntry is one buffered slot write.
type BufEntry struct {
	Obj  *objmodel.Object
	Slot int
	Val  uint64
}

type slotKey struct {
	obj  *objmodel.Object
	slot int
}

// BufSpill is the write-set size past which lookups go through an index
// instead of a scan of the buffer (as objset does).
const BufSpill = 16

// WriteBuf is a deferred-update transaction's buffered writes: one entry per
// buffered slot, in the order the body first buffered each. A runtime that
// buffers in spans of adjacent slots (lazy, Granularity > 1) adds a span's
// slots together at first touch, so a slot is in the buffer exactly when its
// span is. The array and the index outlive a transaction, so a steady-state
// transaction allocates nothing.
type WriteBuf struct {
	Ents  []BufEntry
	index map[slotKey]int // position in Ents; filled only past BufSpill entries
}

// Find returns the position of (o, slot)'s entry, or -1.
func (b *WriteBuf) Find(o *objmodel.Object, slot int) int {
	if len(b.index) > 0 {
		if i, ok := b.index[slotKey{o, slot}]; ok {
			return i
		}
		return -1
	}
	for i := range b.Ents {
		if e := &b.Ents[i]; e.Obj == o && e.Slot == slot {
			return i
		}
	}
	return -1
}

// Add appends an entry for (o, slot), which the caller knows has none.
func (b *WriteBuf) Add(o *objmodel.Object, slot int, v uint64) {
	b.Ents = append(b.Ents, BufEntry{o, slot, v})
	switch n := len(b.Ents); {
	case len(b.index) > 0:
		b.index[slotKey{o, slot}] = n - 1
	case n > BufSpill:
		if b.index == nil {
			b.index = make(map[slotKey]int, 2*BufSpill)
		}
		for i, e := range b.Ents {
			b.index[slotKey{e.Obj, e.Slot}] = i
		}
	}
}

// Put buffers v for (o, slot), over an earlier write to it if there is one.
func (b *WriteBuf) Put(o *objmodel.Object, slot int, v uint64) {
	if i := b.Find(o, slot); i >= 0 {
		b.Ents[i].Val = v
		return
	}
	b.Add(o, slot, v)
}

// Reset empties the buffer, dropping its object references.
func (b *WriteBuf) Reset() {
	clear(b.Ents)
	b.Ents = b.Ents[:0]
	clear(b.index)
}
