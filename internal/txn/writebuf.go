package txn

import (
	"cmp"
	"slices"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
)

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

// Find returns the position of (o, slot)'s entry, or -1. Not for use once a
// commit has reordered Ents (SortByRef leaves the index stale).
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

// SortByRef sorts the entries by object handle, the order a commit acquires
// and writes back in, keeping an object's entries in the order the body first
// wrote them (stable). Up to BufSpill entries that is an insertion sort with
// nothing to call through; past it, the library's.
func (b *WriteBuf) SortByRef() {
	ents := b.Ents
	if len(ents) > BufSpill {
		slices.SortStableFunc(ents, func(x, y BufEntry) int { return cmp.Compare(x.Obj.Ref(), y.Obj.Ref()) })
		return
	}
	for i := 1; i < len(ents); i++ {
		e := ents[i]
		j := i
		for r := e.Obj.Ref(); j > 0 && ents[j-1].Obj.Ref() > r; j-- {
			ents[j] = ents[j-1]
		}
		ents[j] = e
	}
}

// SortByRef sorts objects by their heap handle, the order in which
// commit-time acquirers lock their write sets so that concurrent committers
// cannot deadlock (insertion sort; write sets are small).
func SortByRef(objs []*objmodel.Object) {
	for i := 1; i < len(objs); i++ {
		o := objs[i]
		j := i - 1
		for j >= 0 && objs[j].Ref() > o.Ref() {
			objs[j+1] = objs[j]
			j--
		}
		objs[j+1] = o
	}
}

// Reset empties the buffer, dropping its object references.
func (b *WriteBuf) Reset() {
	clear(b.Ents)
	b.Ents = b.Ents[:0]
	clear(b.index)
}

// AppendBufferedRedo hands the commit sink, if there is one, the buffer as
// the commit's redo image: after write-back the entries carry exactly the
// values the slots now hold.
func (d *Deferred) AppendBufferedRedo() (seq uint64, err error) {
	if d.Sink == nil || len(d.Buf.Ents) == 0 {
		return 0, nil
	}
	d.Redo = d.Redo[:0]
	for _, e := range d.Buf.Ents {
		d.Redo = append(d.Redo, stmapi.RedoWrite{Ref: e.Obj.Ref(), Slot: e.Slot, Val: e.Val})
	}
	return d.AppendRedo()
}
