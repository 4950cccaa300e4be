package txn_test

import (
	"slices"
	"testing"

	"repro/internal/lazystm"
	"repro/internal/mvstm"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
	"repro/internal/txn"
)

// TestWriteSetSliceSpill: a transaction that buffers more slots than the
// write buffer scans reads its own writes on both sides of the threshold,
// keeps one entry for a slot written twice, and writes back in its runtime's
// order. The multi-version runtime goes in program order, the order the body
// first wrote each slot, whatever the objects' handles. The lazy runtime
// goes from the last-buffered slot to the first, and with Granularity 2 a
// span's neighbour slot is buffered with it: read back from the buffer
// (Section 2.4's granular inconsistent read) and written back over whatever
// landed in memory since (the granular lost update).
func TestWriteSetSliceSpill(t *testing.T) {
	type target struct {
		o    *objmodel.Object
		slot int
	}
	const nObjs = 2 * txn.BufSpill
	for _, c := range []struct {
		name  string
		slots []int // written per object, in this order
		// atomic runs body in a fresh runtime over h traced by tr, handing it
		// the descriptor's buffer.
		atomic func(h *objmodel.Heap, tr *trace.Tracer) func(body func(tx stmapi.Txn, buf *txn.WriteBuf)) error
		// order is the write-back order, given the order slots were buffered in.
		order func(buffered []target) []target
	}{
		{
			name:  "mvstm",
			slots: []int{1, 0},
			atomic: func(h *objmodel.Heap, tr *trace.Tracer) func(func(stmapi.Txn, *txn.WriteBuf)) error {
				rt := mvstm.New(h, stmapi.CommonConfig{})
				rt.SetTracer(tr)
				return func(body func(stmapi.Txn, *txn.WriteBuf)) error {
					return rt.Atomic(func(tx stmapi.Txn) error { body(tx, &tx.(*mvstm.Txn).Buf); return nil })
				}
			},
			order: func(buffered []target) []target { return buffered },
		},
		{
			// One write per object, to slot 1: the span brings slot 0 along.
			name:  "lazy spans",
			slots: []int{1},
			atomic: func(h *objmodel.Heap, tr *trace.Tracer) func(func(stmapi.Txn, *txn.WriteBuf)) error {
				rt := lazystm.New(h, stmapi.CommonConfig{Granularity: 2})
				rt.SetTracer(tr)
				return func(body func(stmapi.Txn, *txn.WriteBuf)) error {
					return rt.Atomic(func(tx stmapi.Txn) error { body(tx, &tx.(*lazystm.Txn).Buf); return nil })
				}
			},
			order: func(buffered []target) []target {
				slices.Reverse(buffered)
				return buffered
			},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := objmodel.NewHeap()
			cls := h.MustDefineClass(objmodel.ClassSpec{Name: "Cell", Fields: []objmodel.Field{{Name: "f"}, {Name: "g"}}})
			// The write-back order is the commit's EvWriteBack events, in order.
			var order []target
			tr := trace.New(trace.Config{Shards: 1, ShardCapacity: 64})
			tr.SetSink(trace.SinkFunc(func(ev trace.Event) {
				if ev.Kind == trace.EvWriteBack {
					order = append(order, target{h.Get(objmodel.Ref(ev.Obj)), ev.Slot})
				}
			}))
			final := map[target]uint64{}
			atomic := c.atomic(h, tr)
			objs := make([]*objmodel.Object, nObjs)
			for i := range objs {
				objs[i] = h.New(cls)
				objs[i].StoreSlot(0, uint64(500+i))
			}
			spans := len(c.slots) == 1
			var buffered []target
			if err := atomic(func(tx stmapi.Txn, buf *txn.WriteBuf) {
				for i := nObjs - 1; i >= 0; i-- { // against handle order
					o := objs[i]
					for _, slot := range c.slots {
						tx.Write(o, slot, 1)
						tx.Write(o, slot, uint64(1000+2*i+slot)) // a second write to the same slot
						final[target{o, slot}] = uint64(1000 + 2*i + slot)
						if spans {
							// Slot 0 entered the buffer ahead of slot 1, as it was.
							// A store that lands in memory now is invisible to the
							// body and is overwritten at write-back.
							buffered = append(buffered, target{o, 0})
							final[target{o, 0}] = uint64(500 + i)
							o.StoreSlot(0, 9000)
							if got := tx.Read(o, 0); got != uint64(500+i) {
								t.Errorf("neighbour slot reads %d, want the buffered %d", got, 500+i)
							}
						}
						buffered = append(buffered, target{o, slot})
					}
					// Read-your-writes, for this object and the first one written
					// (entered before the spill, looked up after it).
					for _, j := range []int{i, nObjs - 1} {
						if got, exp := tx.Read(objs[j], 1), uint64(1000+2*j+1); got != exp {
							t.Errorf("after %d objects: own write reads %d, want %d", nObjs-i, got, exp)
						}
					}
				}
				if got := len(buf.Ents); got != 2*nObjs {
					t.Errorf("buffer holds %d entries for %d distinct slots", got, 2*nObjs)
				}
				if !buf.Spilled() {
					t.Errorf("%d entries did not spill past %d", 2*nObjs, txn.BufSpill)
				}
			}); err != nil {
				t.Fatal(err)
			}
			want := c.order(buffered)
			if len(order) != len(want) {
				t.Fatalf("%d write-backs observed, want %d", len(order), len(want))
			}
			for k := range want {
				if order[k] != want[k] {
					t.Fatalf("write-back %d went to object #%d slot %d, want object #%d slot %d",
						k, order[k].o.Ref(), order[k].slot, want[k].o.Ref(), want[k].slot)
				}
			}
			for tg, v := range final {
				if got := tg.o.LoadSlot(tg.slot); got != v {
					t.Errorf("object #%d slot %d = %d after write-back, want %d", tg.o.Ref(), tg.slot, got, v)
				}
			}
			// The descriptor is reused: a small transaction after a spilled one
			// must not see the old index.
			if err := atomic(func(tx stmapi.Txn, buf *txn.WriteBuf) {
				if got := tx.Read(objs[0], 1); got != 1001 {
					t.Errorf("read after the spilled commit = %d, want 1001", got)
				}
				tx.Write(objs[0], 1, 7)
				if buf.Spilled() || tx.Read(objs[0], 1) != 7 {
					t.Error("a reused descriptor kept its spilled index")
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
