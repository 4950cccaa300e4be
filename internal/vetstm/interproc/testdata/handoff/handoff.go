// Package handoff is the Go-embedding analogue of the toy-IR data-handoff
// program used by internal/analysis's parity tests: a producer hands
// managed objects to a consumer goroutine, so the items are thread-shared
// (TL must keep their barriers) but never transactionally accessed (NAIT
// may elide them). Alongside it: a purely local scratch object (nait+tl),
// a transactional-but-single-threaded object (tl), a shared transactional
// counter (mixed), and a public-born object (excluded from the manifest).
package handoff

import (
	"repro/internal/objmodel"
	"repro/internal/stm"
	"repro/internal/stmapi"
	"repro/internal/strong"
)

// Run exercises every classification the elision analysis can produce.
func Run() {
	h := objmodel.NewHeap()
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "Item",
		Fields: []objmodel.Field{{Name: "v"}, {Name: "next", IsRef: true}},
	})
	rt := stm.New(h, stmapi.CommonConfig{})
	b := strong.New(h, false)

	ch := make(chan objmodel.Ref, 8)
	done := make(chan struct{}, 2)
	go consume(b, h, ch, done)
	for i := 0; i < 4; i++ {
		item := h.New(cls) // crosses goroutines, never in a txn: nait
		b.Write(item, 0, uint64(i))
		ch <- item.Ref()
	}
	close(ch)

	scratch := h.New(cls) // purely local: nait+tl
	b.Write(scratch, 0, 7)
	_ = b.Read(scratch, 0)

	counter := h.New(cls) // txn access and crosses goroutines: mixed
	go bump(b, counter, done)
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(counter, 0, tx.Read(counter, 0)+1)
		return nil
	})

	local := h.New(cls) // txn access, single goroutine: tl
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		tx.Write(local, 0, 1)
		return nil
	})

	pub := h.NewPublic(cls) // public-born: never in the manifest
	b.Write(pub, 0, 3)

	<-done
	<-done
}

func consume(b *strong.Barriers, h *objmodel.Heap, ch chan objmodel.Ref, done chan struct{}) {
	for r := range ch {
		o := h.Get(r)
		_ = b.Read(o, 0)
	}
	done <- struct{}{}
}

func bump(b *strong.Barriers, o *objmodel.Object, done chan struct{}) {
	b.Write(o, 0, 9)
	done <- struct{}{}
}
