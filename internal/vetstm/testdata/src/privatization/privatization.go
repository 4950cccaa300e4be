// Fixtures for the privatization pass: the §3.3 publication and
// privatization hazards.
package privatization

import (
	"repro/internal/objmodel"
	"repro/internal/stm"
	"repro/internal/stmapi"
	"repro/internal/strong"
)

// Unsafe publication: storing a managed reference through the raw,
// unbarriered StoreSlot skips the Figure 11 publication walk.
func unsafePublication(container, item *objmodel.Object) {
	container.StoreSlot(0, uint64(item.Ref())) // want `unbarriered publication`
	r := item.Ref()
	container.StoreSlot(1, uint64(r)) // want `unbarriered publication`
	container.StoreSlot(2, 42)        // plain value: fine
}

func safePublication(b *strong.Barriers, rt *stm.Runtime, container, item *objmodel.Object) {
	b.WriteRef(container, 0, item.Ref()) // barriered: runs the publication walk
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		tx.WriteRef(container, 0, item.Ref()) // transactional: fine
		return nil
	})
}

// Privatize-then-raw-read: the Figure 1 idiom. The handle escapes its
// atomic block, and the raw read afterwards can see a committed
// transaction's write-back still in flight.
func privatizeThenRawRead(h *objmodel.Heap, rt *stm.Runtime, list *objmodel.Object) uint64 {
	var ref objmodel.Ref
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		ref = tx.ReadRef(list, 0)
		tx.WriteRef(list, 0, 0) // unlink: the item is private now
		return nil
	})
	o := h.Get(ref)
	return o.LoadSlot(0) // want `privatized by the atomic block`
}

// The same shape through the ordering read barrier is the sanctioned fix.
func privatizeThenOrderedRead(h *objmodel.Heap, b *strong.Barriers, rt *stm.Runtime, list *objmodel.Object) uint64 {
	var ref objmodel.Ref
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		ref = tx.ReadRef(list, 0)
		tx.WriteRef(list, 0, 0)
		return nil
	})
	o := h.Get(ref)
	return b.ReadOrdering(o, 0) // ordering barrier: fine
}

// A raw access with no privatizing transaction in sight is not this
// pass's business (nakedaccess owns the general case).
func rawReadUnrelated(o *objmodel.Object) uint64 {
	return o.LoadSlot(0)
}

// Suppression works like every other pass.
func suppressed(container, item *objmodel.Object) {
	container.StoreSlot(0, uint64(item.Ref())) //stmvet:ignore privatization -- init before publish
}
