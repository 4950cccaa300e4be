package main

import (
	"fmt"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/strong"
)

// privatize_nt is the paper's own scenario: a transaction takes an item out of
// a shared holder, non-transactional code works on it (and on a worker-local
// scratch object) through the strong-atomicity barriers, and a transaction
// puts it back. Transactions only ever touch holders; item and scratch slots
// are touched by non-transactional code only.

const (
	holders      = 1024
	ntSlots      = 32 // scalar slots of an item and of a scratch object: one read and one write each per operation
	publishEvery = 64 // one operation in so many publishes its scratch object into the item
	privAccesses = 3  // take reads and clears the holder, put fills it
)

// privVariant is how one runtime runs the cycle.
type privVariant struct {
	runtime  string
	barriers bool // strong atomicity; false is the unbarriered weak baseline
	dea      bool // objects are born private, barriers take the private path (Section 4)
	ordering bool // reads use the lighter lazy-versioning barrier (Section 3.3)
}

// mvstm has no strong mode, so it runs the cycle under weak atomicity: the
// same transactions with bare loads and stores between them. That is safe
// here, because transactions never touch what non-transactional code touches,
// and it is the baseline the barriers of the other two are paid against.
var privVariants = []privVariant{
	{runtime: "eager", barriers: true, dea: true},
	{runtime: "lazy", barriers: true, ordering: true},
	{runtime: "mvstm"},
}

type privSystem struct {
	heap    *objmodel.Heap
	holders []*objmodel.Object
	items   []*objmodel.Object
	scratch *objmodel.Class
	rt      stmapi.Runtime
}

func buildPrivatize(v privVariant) (*privSystem, error) {
	h := objmodel.NewHeap()
	h.AllocPrivate = v.dea
	holderCls, err := h.DefineClass(objmodel.ClassSpec{Name: "Holder", Fields: []objmodel.Field{{Name: "item", IsRef: true}}})
	if err != nil {
		return nil, err
	}
	itemCls, err := h.DefineClass(objmodel.ClassSpec{Name: "Item", Fields: append(scalarFields(ntSlots), objmodel.Field{Name: "scratch", IsRef: true})})
	if err != nil {
		return nil, err
	}
	sys := &privSystem{heap: h}
	if sys.scratch, err = h.DefineClass(objmodel.ClassSpec{Name: "Scratch", Fields: scalarFields(ntSlots)}); err != nil {
		return nil, err
	}
	for i := 0; i < holders; i++ {
		holder, item := h.NewPublic(holderCls), h.NewPublic(itemCls)
		holder.StoreSlot(0, uint64(item.Ref())) //stmvet:ignore privatization -- set-up, before any worker exists; the item is public from birth (NewPublic)
		sys.holders, sys.items = append(sys.holders, holder), append(sys.items, item)
	}
	sys.rt, err = stmapi.New(v.runtime, h, stmapi.CommonConfig{})
	return sys, err
}

func runPrivatize(c config) (*wlResult, error) {
	res := newResult(c, "privatize_nt")
	var barriers pooled // the strong-atomicity segments
	var all pooled
	var clockTicks int64
	var runs []*segRun
	for _, v := range privVariants {
		seg := c.newSegment(v.runtime)
		sys, setupS, err := timeSetup(c.setupReps, 1, func() (*privSystem, error) { return buildPrivatize(v) }, nil)
		if err != nil {
			return nil, fmt.Errorf("privatize_nt/%s: %w", v.runtime, err)
		}
		res.setupS += setupS

		bar := strong.New(sys.heap, v.dea)
		cycles := make([]counter, c.workers)
		for g := 0; g < c.workers; g++ {
			w := seg.addWorker(c.seed, sys.rt.Atomic)
			w.op = sys.cycle(w, v, bar, &cycles[g].n)
		}
		clock0 := sys.heap.Clock().Load()
		runs = append(runs, &segRun{seg: seg, rt: sys.rt, accesses: privAccesses,
			check: func() error { return sys.check(tally(cycles)) },
			collect: func(s segResult, _ stmapi.StatsSnapshot) {
				all.add(s)
				clockTicks += int64(sys.heap.Clock().Load() - clock0)
				if v.barriers {
					barriers.add(s)
				}
			}})
	}
	if err := res.measure(c, runs); err != nil {
		return nil, fmt.Errorf("privatize_nt: %w", err)
	}
	if !c.traced {
		return res, nil
	}

	t := &barriers.totals
	perBatch := float64(ntSlots)
	res.Layers["strong.public_read_ns"] = ratio(float64(t[kPublicRead].self), float64(t[kPublicRead].n)*perBatch)
	res.Layers["strong.public_write_ns"] = ratio(float64(t[kPublicWrite].self), float64(t[kPublicWrite].n)*perBatch)
	res.Layers["strong.private_access_ns"] = ratio(float64(t[kPrivate].self), float64(t[kPrivate].n)*perBatch)
	// Counted in batches by the harness, which looks at the record before a
	// batch as the barrier does before an access; strong.Stats would count the
	// same, with two contended atomic adds on every access it counts.
	res.Layers["strong.private_hit_share"] = ratio(float64(t[kPrivate].n), float64(t[kPrivate].n+t[kPublicRead].n+t[kPublicWrite].n))
	nt := t[kPublicRead].total + t[kPublicWrite].total + t[kPrivate].total + t[kPublish].total
	res.Layers["strong.nt_share"] = ratio(float64(nt), float64(t[kOp].total))
	res.Layers["objmodel.alloc_ns"] = ratio(float64(all.totals[kAlloc].self), float64(all.totals[kAlloc].n))
	res.Layers["objmodel.publish_ns"] = ratio(float64(t[kPublish].self), float64(t[kPublish].n))
	res.Layers["objmodel.clock_advance_per_op"] = ratio(float64(clockTicks), float64(all.ops))
	return res, nil
}

// cycle returns worker w's operation: take, work, put.
func (sys *privSystem) cycle(w *worker, v privVariant, bar *strong.Barriers, cycles *int64) func() error {
	st := new(struct {
		_      pad
		start  int              // where take starts probing
		holder *objmodel.Object // the holder take emptied
		item   objmodel.Ref
		vals   [ntSlots]uint64
		_      pad
	})
	vals := &st.vals
	scratch := sys.heap.New(sys.scratch)
	take := func(tx stmapi.Txn) error {
		// Another worker may hold the item of the holder drawn: take the next
		// full one. There are always more holders than workers.
		for i := st.start; ; i++ {
			st.holder = sys.holders[i%holders]
			if st.item = tx.ReadRef(st.holder, 0); st.item != objmodel.Null {
				tx.WriteRef(st.holder, 0, objmodel.Null)
				return nil
			}
		}
	}
	put := func(tx stmapi.Txn) error {
		tx.WriteRef(st.holder, 0, st.item)
		return nil
	}

	read := func(o *objmodel.Object) {
		for s := range vals {
			vals[s] = bar.Read(o, s)
		}
	}
	write := func(o *objmodel.Object) {
		for s := range vals {
			bar.Write(o, s, vals[s]+1)
		}
	}
	publish := func(into, o *objmodel.Object) { bar.WriteRef(into, ntSlots, o.Ref()) }
	readKind, writeKind := kPublicRead, kPublicWrite
	switch {
	case v.ordering:
		read = func(o *objmodel.Object) {
			for s := range vals {
				vals[s] = bar.ReadOrdering(o, s)
			}
		}
	case !v.barriers:
		readKind, writeKind = kPlain, kPlain
		read = func(o *objmodel.Object) {
			for s := range vals {
				vals[s] = o.LoadSlot(s)
			}
		}
		write = func(o *objmodel.Object) {
			for s := range vals {
				o.StoreSlot(s, vals[s]+1)
			}
		}
		//stmvet:ignore privatization -- the weak baseline: nothing is born private without DEA, so there is nothing to publish
		publish = func(into, o *objmodel.Object) { into.StoreSlot(ntSlots, uint64(o.Ref())) }
	}
	// work increments every scalar slot of o: a batch of reads, then a batch
	// of writes, each one span on a sampled operation.
	work := func(o *objmodel.Object) {
		if !w.tracing {
			read(o)
			write(o)
			return
		}
		rk, wk := readKind, writeKind
		if v.dea && o.IsPrivate() {
			rk, wk = kPrivate, kPrivate
		}
		t0 := now()
		read(o)
		t1 := now()
		write(o)
		w.rec.add(rk, w.rec.root, t0, t1)
		w.rec.add(wk, w.rec.root, t1, now())
	}

	return func() error {
		st.start = w.rng.below(holders)
		if err := w.atomic(take); err != nil {
			return err
		}
		work(sys.heap.Get(st.item))
		work(scratch)
		// Drawn, not counted: a fixed period would never fall on a sampled
		// operation, whose period divides it.
		if w.rng.below(publishEvery) == 0 {
			if !w.tracing {
				publish(sys.heap.Get(st.item), scratch)
				scratch = sys.heap.New(sys.scratch)
			} else {
				t0 := now()
				publish(sys.heap.Get(st.item), scratch)
				t1 := now()
				scratch = sys.heap.New(sys.scratch)
				w.rec.add(kPublish, w.rec.root, t0, t1)
				w.rec.add(kAlloc, w.rec.root, t1, now())
			}
		}
		if err := w.atomic(put); err != nil {
			return err
		}
		*cycles++
		return nil
	}
}

// check requires every holder full again and the items' slots to add up to
// ntSlots increments per completed cycle.
func (sys *privSystem) check(cycles []int64) error {
	var sum, want uint64
	for i, h := range sys.holders {
		if h.LoadSlot(0) == 0 {
			return fmt.Errorf("holder %d is empty after the run", i)
		}
		for s := 0; s < ntSlots; s++ {
			sum += sys.items[i].LoadSlot(s)
		}
	}
	for _, n := range cycles {
		want += uint64(n) * ntSlots
	}
	if sum != want {
		return fmt.Errorf("item slots sum to %d, want %d (%d increments per cycle)", sum, want, ntSlots)
	}
	return nil
}
