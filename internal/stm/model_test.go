package stm

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/txrec"
)

// TestSequentialModelEquivalence drives the STM with random operation
// sequences — reads, writes, overwrites, restores, restarts — on a single
// thread and checks the heap afterwards against a plain in-memory model
// executing the same sequence. This exercises the undo log and the release
// paths deterministically.
func TestSequentialModelEquivalence(t *testing.T) {
	type op struct {
		Kind  uint8 // 0 write, 1 overwrite, 2 write-then-restore, 3 read-check, 4 restart-once
		Obj   uint8
		Slot  uint8
		Value uint8
	}
	f := func(ops []op, seed int64) bool {
		const nObjs, nSlots = 4, 3
		fx := newFixture(t, stmapi.CommonConfig{})
		objs := make([]*objmodel.Object, nObjs)
		for i := range objs {
			objs[i] = fx.newCell()
		}
		model := make([][]uint64, nObjs)
		for i := range model {
			model[i] = make([]uint64, nSlots)
		}
		rng := rand.New(rand.NewSource(seed))

		i := 0
		restarted := false
		err := fx.rt.Atomic(func(tx stmapi.Txn) error {
			// On restart, re-execute from the beginning like the VM does.
			i = 0
			shadow := make([][]uint64, nObjs)
			for k := range shadow {
				shadow[k] = append([]uint64(nil), model[k]...)
			}
			for ; i < len(ops); i++ {
				o := ops[i]
				obj := objs[o.Obj%nObjs]
				slot := int(o.Slot % nSlots)
				switch o.Kind % 5 {
				case 0:
					tx.Write(obj, slot, uint64(o.Value))
					shadow[o.Obj%nObjs][slot] = uint64(o.Value)
				case 1: // overwrite: two undo entries for one slot
					tx.Write(obj, slot, 999)
					tx.Write(obj, slot, uint64(o.Value)+1)
					shadow[o.Obj%nObjs][slot] = uint64(o.Value) + 1
				case 2: // write then restore: no model effect
					tx.Write(obj, slot, 999)
					tx.Write(obj, slot, shadow[o.Obj%nObjs][slot])
				case 3: // read must match the shadow state
					if got := tx.Read(obj, slot); got != shadow[o.Obj%nObjs][slot] {
						t.Errorf("read %d, shadow %d", got, shadow[o.Obj%nObjs][slot])
					}
				case 4: // occasional restart exercises full rollback
					if !restarted && rng.Intn(4) == 0 {
						restarted = true
						tx.Restart()
					}
				}
			}
			// Commit: publish shadow into the model.
			for k := range shadow {
				copy(model[k], shadow[k])
			}
			return nil
		})
		if err != nil {
			t.Fatalf("atomic: %v", err)
		}
		for k, obj := range objs {
			for s := 0; s < nSlots; s++ {
				if obj.LoadSlot(s) != model[k][s] {
					t.Errorf("obj %d slot %d: heap %d, model %d", k, s, obj.LoadSlot(s), model[k][s])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestVersionsNeverDecrease: across arbitrary concurrent transactional and
// barrier-style activity, each object's shared version is monotone.
func TestVersionsNeverDecrease(t *testing.T) {
	fx := newFixture(t, stmapi.CommonConfig{})
	o := fx.newCell()
	stop := make(chan struct{})
	var maxSeen uint64
	var bad int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // observer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			w := o.Rec.Load()
			if txrec.IsShared(w) {
				v := txrec.Version(w)
				if v < maxSeen {
					bad++
				} else {
					maxSeen = v
				}
			}
		}
	}()
	var workers sync.WaitGroup
	for g := 0; g < 4; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			for i := 0; i < 500; i++ {
				if g%2 == 0 {
					_ = fx.rt.Atomic(func(tx stmapi.Txn) error {
						tx.Write(o, 0, tx.Read(o, 0)+1)
						if i%7 == 0 {
							return errAborted
						}
						return nil
					})
				} else {
					for {
						if _, ok := o.Rec.AcquireAnon(); ok {
							break
						}
					}
					o.StoreSlot(1, uint64(i))
					o.Rec.ReleaseAnon()
				}
			}
		}(g)
	}
	workers.Wait()
	close(stop)
	wg.Wait()
	if bad != 0 {
		t.Errorf("observed %d version decreases", bad)
	}
}

// TestRandomTransfersPreserveSum: concurrent random transfers between
// cells keep the total constant under any interleaving — the classic STM
// serializability stress, with user aborts mixed in.
func TestRandomTransfersPreserveSum(t *testing.T) {
	fx := newFixture(t, stmapi.CommonConfig{})
	const nCells = 6
	cells := make([]*objmodel.Object, nCells)
	for i := range cells {
		cells[i] = fx.newCell()
		cells[i].StoreSlot(0, 100)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400; i++ {
				from, to := rng.Intn(nCells), rng.Intn(nCells)
				amt := uint64(rng.Intn(5))
				abort := rng.Intn(10) == 0
				_ = fx.rt.Atomic(func(tx stmapi.Txn) error {
					tx.Write(cells[from], 0, tx.Read(cells[from], 0)-amt)
					tx.Write(cells[to], 0, tx.Read(cells[to], 0)+amt)
					if abort {
						return errAborted
					}
					return nil
				})
			}
		}(int64(g))
	}
	wg.Wait()
	var total int64
	for _, c := range cells {
		total += int64(c.LoadSlot(0))
	}
	if total != nCells*100 {
		t.Errorf("total = %d, want %d", total, nCells*100)
	}
	for _, c := range cells {
		w := c.Rec.Load()
		if !txrec.IsShared(w) {
			t.Errorf("cell record leaked in state %v", txrec.StateOf(w))
		}
	}
}

// TestQuiescencePrivatizationStress: with quiescence enabled, a thread
// that privatizes a node out of a shared structure can use plain
// (unbarriered!) accesses afterwards — the Section 3.4 guarantee — even
// while doomed transactions are still running.
func TestQuiescencePrivatizationStress(t *testing.T) {
	fx := newFixture(t, stmapi.CommonConfig{Quiescence: true})
	holder := fx.newCell() // slot 2 (ref) points at the current item
	const rounds = 150
	var violations int
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Mutator transactions keep incrementing both fields of the shared item.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = fx.rt.Atomic(func(tx stmapi.Txn) error {
					r := tx.ReadRef(holder, 2)
					if r == 0 {
						return nil
					}
					item := fx.heap.Get(r)
					tx.Write(item, 0, tx.Read(item, 0)+1)
					tx.Write(item, 1, tx.Read(item, 1)+1)
					return nil
				})
			}
		}()
	}
	for round := 0; round < rounds; round++ {
		item := fx.newCell()
		_ = fx.rt.Atomic(func(tx stmapi.Txn) error {
			tx.WriteRef(holder, 2, item.Ref())
			return nil
		})
		// Privatize: after this transaction (plus quiescence), no
		// transaction may still touch the item.
		_ = fx.rt.Atomic(func(tx stmapi.Txn) error {
			tx.WriteRef(holder, 2, 0)
			return nil
		})
		a := item.LoadSlot(0) // plain, unbarriered reads
		b := item.LoadSlot(1)
		if a != b {
			violations++
		}
	}
	close(stop)
	wg.Wait()
	if violations != 0 {
		t.Errorf("%d privatization violations despite quiescence", violations)
	}
}
