package litmus

// Granularity litmus: the Section 2.4 granularity anomalies (GLU, GIR) are a
// property of span-level version management, that is of
// CommonConfig.Granularity. Each trial runs once at Granularity 2, where
// the anomaly must show, and once at slot granularity, where it must
// vanish; the litmus programs themselves run only at 2, so these rows are
// the check of the slot side. The trials drive the concrete runtimes
// directly so each can hold Thread 1 at the point the anomaly needs.

import (
	"sync"
	"testing"

	"repro/internal/lazystm"
	"repro/internal/objmodel"
	"repro/internal/stm"
	"repro/internal/stmapi"
)

func promoCells(h *objmodel.Heap, n int) []*objmodel.Object {
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "PromoCell",
		Fields: []objmodel.Field{{Name: "f"}, {Name: "g"}},
	})
	objs := make([]*objmodel.Object, n)
	for i := range objs {
		objs[i] = h.New(cls)
	}
	return objs
}

// TestGLUVanishesAfterPromotion: Figure 5a's granular lost update on the
// eager runtime's abort path. At 2-slot granularity the transactional
// rollback of x.f rewrites x.g from the stale undo span, losing Thread 2's
// non-transactional update; at slot granularity the update survives.
func TestGLUVanishesAfterPromotion(t *testing.T) {
	trial := func(gran int) bool {
		h := objmodel.NewHeap()
		rt := stm.New(h, stmapi.CommonConfig{Granularity: gran})
		x := promoCells(h, 1)[0]
		afterWrite := make(chan struct{})
		t2done := make(chan struct{})
		var once sync.Once
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // Thread 2: x.g = 1
			defer wg.Done()
			<-afterWrite
			x.StoreSlot(SlotG, 1)
			close(t2done)
		}()
		_ = rt.Atomic(func(tx stmapi.Txn) error { // Thread 1: atomic { x.f = 5 } aborting once
			tx.Write(x, SlotF, 5)
			if tx.Attempt() == 0 {
				once.Do(func() { close(afterWrite) })
				waitOrTimeout(t2done)
				tx.Restart()
			}
			return nil
		})
		wg.Wait()
		return x.LoadSlot(SlotG) == 0 // anomaly: Thread 2's update vanished
	}
	if !trial(2) {
		t.Error("GLU anomaly not observed at span granularity")
	}
	if trial(1) {
		t.Error("GLU anomaly observed at slot granularity")
	}
}

// TestGIRVanishesAfterPromotion: Figure 5b's granular inconsistent read on
// the lazy runtime. At 2-slot granularity Thread 1's write to x.f buffers a
// span snapshot including x.g, so after observing the y flag it reads the
// stale buffered x.g; at slot granularity the buffer covers only x.f and
// the read sees Thread 2's update.
func TestGIRVanishesAfterPromotion(t *testing.T) {
	trial := func(gran int) bool {
		h := objmodel.NewHeap()
		rt := lazystm.New(h, stmapi.CommonConfig{Granularity: gran})
		cells := promoCells(h, 2)
		x, y := cells[0], cells[1]
		afterWrite := make(chan struct{})
		t2done := make(chan struct{})
		var once sync.Once
		const sentinel = 111
		var r uint64 = sentinel
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // Thread 2: x.g = 1; y = 1
			defer wg.Done()
			<-afterWrite
			x.StoreSlot(SlotG, 1)
			y.StoreSlot(SlotF, 1)
			close(t2done)
		}()
		_ = rt.Atomic(func(tx stmapi.Txn) error { // Thread 1: atomic { x.f=5; if y==1 then r=x.g }
			r = sentinel
			tx.Write(x, SlotF, 5)
			once.Do(func() { close(afterWrite) })
			waitOrTimeout(t2done)
			if tx.Read(y, SlotF) == 1 {
				r = tx.Read(x, SlotG)
			}
			return nil
		})
		wg.Wait()
		return r == 0 // anomaly: saw the flag but a stale x.g
	}
	if !trial(2) {
		t.Error("GIR anomaly not observed at span granularity")
	}
	if trial(1) {
		t.Error("GIR anomaly observed at slot granularity")
	}
}
