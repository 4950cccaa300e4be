package containers

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/stmapi"
)

// onEachSystem runs f on a fresh instance of every system the containers
// support: each registered runtime weakly atomic (eager's keeps the plain
// name "weak"), and each strongly atomic system core assembles.
func onEachSystem(t *testing.T, f func(t *testing.T, sys *core.System)) {
	cfgs := map[string]core.Config{
		"strong":      {Strong: true},
		"strong-dea":  {Strong: true, DEA: true},
		"strong-lazy": {Versioning: "lazy", Strong: true},
	}
	for _, rt := range stmapi.Runtimes() {
		name := "weak-" + rt
		if rt == "eager" {
			name = "weak"
		}
		cfgs[name] = core.Config{Versioning: rt}
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) { f(t, core.MustNewSystem(cfg)) })
	}
}

func TestMapBasics(t *testing.T) { onEachSystem(t, testMapBasics) }

func testMapBasics(t *testing.T, sys *core.System) {
	m, err := NewMap(sys, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.Get(1); ok {
		t.Error("empty map claims membership")
	}
	for k := int64(0); k < 50; k++ {
		if err := m.Put(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Put(7, 777); err != nil { // update
		t.Fatal(err)
	}
	for k := int64(0); k < 50; k++ {
		v, ok, err := m.Get(k)
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", k, ok, err)
		}
		want := k * 10
		if k == 7 {
			want = 777
		}
		if v != want {
			t.Errorf("get %d = %d, want %d", k, v, want)
		}
	}
	if n, _ := m.Len(); n != 50 {
		t.Errorf("len = %d, want 50", n)
	}
	if ok, _ := m.Delete(7); !ok {
		t.Error("delete existing failed")
	}
	if ok, _ := m.Delete(7); ok {
		t.Error("double delete succeeded")
	}
	if _, ok, _ := m.Get(7); ok {
		t.Error("deleted key still present")
	}
	if n, _ := m.Len(); n != 49 {
		t.Errorf("len = %d, want 49", n)
	}
}

func TestMapConcurrent(t *testing.T) { onEachSystem(t, testMapConcurrent) }

func testMapConcurrent(t *testing.T, sys *core.System) {
	m, err := NewMap(sys, 16)
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		perW    = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := int64(w*perW + i)
				if err := m.Put(k, k+1); err != nil {
					t.Error(err)
					return
				}
				if v, ok, _ := m.Get(k); !ok || v != k+1 {
					t.Errorf("readback %d: %d/%v", k, v, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n, _ := m.Len(); n != writers*perW {
		t.Errorf("len = %d, want %d", n, writers*perW)
	}
}

// TestMapComposedTransfer moves an entry between two maps in ONE atomic
// step using the Tx variants — transactional composition, the STM selling
// point the paper's intro leans on.
func TestMapComposedTransfer(t *testing.T) { onEachSystem(t, testMapComposedTransfer) }

func testMapComposedTransfer(t *testing.T, sys *core.System) {
	a, _ := NewMap(sys, 8)
	b, _ := NewMap(sys, 8)
	if err := a.Put(1, 42); err != nil {
		t.Fatal(err)
	}
	err := sys.Atomic(func(tx core.Tx) error {
		v, ok := a.GetTx(tx, 1)
		if !ok {
			t.Error("missing key inside transaction")
		}
		a.DeleteTx(tx, 1)
		b.PutTx(tx, 1, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := a.Get(1); ok {
		t.Error("key still in source map")
	}
	if v, ok, _ := b.Get(1); !ok || v != 42 {
		t.Errorf("destination has %d/%v", v, ok)
	}
}

func TestQueueFIFOAndBlocking(t *testing.T) { onEachSystem(t, testQueueFIFOAndBlocking) }

func testQueueFIFOAndBlocking(t *testing.T, sys *core.System) {
	q, err := NewQueue(sys, 4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	var got []int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // consumer
		defer wg.Done()
		for i := 0; i < n; i++ {
			v, err := q.Take()
			if err != nil {
				t.Error(err)
				return
			}
			got = append(got, v)
		}
	}()
	for i := 0; i < n; i++ { // producer (blocks when the 4-slot buffer fills)
		if err := q.Put(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("position %d = %d (FIFO order violated)", i, v)
		}
	}
}

func TestQueueTryTake(t *testing.T) { onEachSystem(t, testQueueTryTake) }

func testQueueTryTake(t *testing.T, sys *core.System) {
	q, _ := NewQueue(sys, 2)
	if _, ok, _ := q.TryTake(); ok {
		t.Error("TryTake on empty queue returned a value")
	}
	_ = q.Put(9)
	v, ok, _ := q.TryTake()
	if !ok || v != 9 {
		t.Errorf("TryTake = %d/%v", v, ok)
	}
}

func TestQueueManyProducersConsumers(t *testing.T) { onEachSystem(t, testQueueManyProducersConsumers) }

func testQueueManyProducersConsumers(t *testing.T, sys *core.System) {
	q, _ := NewQueue(sys, 8)
	const (
		producers = 3
		perP      = 100
	)
	var sum int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := int64(0)
			for i := 0; i < producers*perP/2; i++ {
				v, err := q.Take()
				if err != nil {
					t.Error(err)
					return
				}
				local += v
			}
			mu.Lock()
			sum += local
			mu.Unlock()
		}()
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perP; i++ {
				if err := q.Put(int64(p*perP + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	want := int64(0)
	for v := 0; v < producers*perP; v++ {
		want += int64(v)
	}
	if sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
}

func TestSetSortedAndDedup(t *testing.T) { onEachSystem(t, testSetSortedAndDedup) }

func testSetSortedAndDedup(t *testing.T, sys *core.System) {
	s, err := NewSet(sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int64{5, 1, 9, 5, 3, 1, 7} {
		if _, err := s.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 3, 5, 7, 9}
	if len(keys) != len(want) {
		t.Fatalf("snapshot = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("snapshot = %v, want %v", keys, want)
		}
	}
	if found, _ := s.Contains(7); !found {
		t.Error("missing member")
	}
	if found, _ := s.Contains(8); found {
		t.Error("phantom member")
	}
	if removed, _ := s.Remove(5); !removed {
		t.Error("remove failed")
	}
	if found, _ := s.Contains(5); found {
		t.Error("removed member still present")
	}
	if removed, _ := s.Remove(5); removed {
		t.Error("double remove succeeded")
	}
}

func TestSetConcurrentInserts(t *testing.T) { onEachSystem(t, testSetConcurrentInserts) }

func testSetConcurrentInserts(t *testing.T, sys *core.System) {
	s, _ := NewSet(sys)
	var added int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := int64(0)
			for k := int64(0); k < 100; k++ {
				ok, err := s.Insert(k) // every goroutine tries every key
				if err != nil {
					t.Error(err)
					return
				}
				if ok {
					n++
				}
			}
			mu.Lock()
			added += n
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if added != 100 {
		t.Errorf("total successful inserts = %d, want exactly 100", added)
	}
	keys, _ := s.Snapshot()
	if len(keys) != 100 {
		t.Errorf("set size = %d", len(keys))
	}
}

// TestMapAgainstModel drives the map with random operations and compares
// against Go's built-in map.
func TestMapAgainstModel(t *testing.T) { onEachSystem(t, testMapAgainstModel) }

func testMapAgainstModel(t *testing.T, sys *core.System) {
	m, err := NewMap(sys, 4) // few buckets: long chains
	if err != nil {
		t.Fatal(err)
	}
	model := map[int64]int64{}
	f := func(ops []struct {
		Op  uint8
		Key int8
		Val int16
	}) bool {
		for _, o := range ops {
			k := int64(o.Key % 16)
			switch o.Op % 3 {
			case 0:
				if err := m.Put(k, int64(o.Val)); err != nil {
					t.Fatal(err)
				}
				model[k] = int64(o.Val)
			case 1:
				ok, err := m.Delete(k)
				if err != nil {
					t.Fatal(err)
				}
				if _, want := model[k]; ok != want {
					t.Errorf("delete %d = %v, model %v", k, ok, want)
				}
				delete(model, k)
			case 2:
				v, ok, err := m.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				wantV, wantOK := model[k]
				if ok != wantOK || (ok && v != wantV) {
					t.Errorf("get %d = %d/%v, model %d/%v", k, v, ok, wantV, wantOK)
				}
			}
		}
		n, _ := m.Len()
		return n == int64(len(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
