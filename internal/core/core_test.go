package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/stmapi"
)

func TestSystemStrongCounter(t *testing.T) {
	s := MustNewSystem(Config{Strong: true})
	cls, err := s.DefineClass("Counter", Field{Name: "n"})
	if err != nil {
		t.Fatal(err)
	}
	o := s.New(cls)
	const perSide = 1000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // transactional side
		defer wg.Done()
		for i := 0; i < perSide; i++ {
			_ = s.Atomic(func(tx Tx) error {
				tx.Write(o, 0, tx.Read(o, 0)+1)
				return nil
			})
		}
	}()
	go func() { // non-transactional side: one aggregated barrier per increment
		defer wg.Done()
		bar := s.Barriers
		for i := 0; i < perSide; i++ {
			// A separate Read and Write are two barriers: a transaction
			// committing between them would be overwritten.
			tok := bar.Acquire(o)
			bar.AggWrite(o, 0, bar.AggRead(o, 0, tok)+1, tok)
			bar.Release(o, tok)
		}
	}()
	wg.Wait()
	if got := o.LoadSlot(0); got != 2*perSide {
		t.Errorf("counter = %d, want %d (strong atomicity must not lose updates)", got, 2*perSide)
	}
}

func TestSystemWeakIsDirect(t *testing.T) {
	s := MustNewSystem(Config{})
	cls, _ := s.DefineClass("C", Field{Name: "x"})
	o := s.New(cls)
	s.Write(o, 0, 7)
	if s.Read(o, 0) != 7 {
		t.Error("weak read/write roundtrip failed")
	}
}

func TestSystemLazy(t *testing.T) {
	s := MustNewSystem(Config{Versioning: "lazy", Strong: true})
	cls, _ := s.DefineClass("C", Field{Name: "x"})
	o := s.New(cls)
	err := s.Atomic(func(tx Tx) error {
		tx.Write(o, 0, 5)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Read(o, 0); got != 5 {
		t.Errorf("read = %d", got)
	}
}

func TestSystemRefsAndDeref(t *testing.T) {
	s := MustNewSystem(Config{Strong: true, DEA: true, Versioning: "eager"})
	node, _ := s.DefineClass("Node", Field{Name: "v"}, Field{Name: "next", IsRef: true})
	a, b := s.New(node), s.New(node)
	b.StoreSlot(0, 42)
	s.WriteRef(a, 1, b.Ref()) // a is private: no publication
	if !b.IsPrivate() {
		t.Error("write into private container should not publish")
	}
	if got := s.Deref(s.ReadRef(a, 1)).LoadSlot(0); got != 42 {
		t.Errorf("deref = %d", got)
	}
}

// TestAssembly pins the one decision this package owns: which combinations
// of runtime, atomicity, escape analysis and granularity make a system.
// Every registered runtime runs weakly atomic; strong atomicity needs a
// barrier pairing (eager, lazy); DEA needs strong eager; strong lazy buffers
// field-granular whatever granularity is asked for.
func TestAssembly(t *testing.T) {
	type atomicity struct {
		name        string
		strong, dea bool
	}
	for _, rt := range stmapi.Runtimes() {
		for _, a := range []atomicity{{"weak", false, false}, {"strong", true, false}, {"strong+dea", true, true}} {
			for _, gran := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/g%d", rt, a.name, gran), func(t *testing.T) {
					wantErr := ""
					switch {
					case a.strong && rt != "eager" && rt != "lazy":
						wantErr = "no barriers"
					case a.dea && rt != "eager":
						wantErr = "DEA requires"
					}
					s, err := NewSystem(Config{
						CommonConfig: stmapi.CommonConfig{Granularity: gran},
						Versioning:   rt, Strong: a.strong, DEA: a.dea,
					})
					if wantErr != "" {
						if err == nil || !strings.Contains(err.Error(), wantErr) {
							t.Fatalf("err = %v, want one containing %q", err, wantErr)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if s.RT.Name() != rt {
						t.Errorf("runtime %q, want %q", s.RT.Name(), rt)
					}
					if s.Heap.AllocPrivate != a.dea || s.Barriers.DEA != a.dea {
						t.Errorf("DEA: heap %v barriers %v, want %v", s.Heap.AllocPrivate, s.Barriers.DEA, a.dea)
					}
					// What granularity the system runs at shows in whether a
					// write to slot 0 drags the neighbouring slot 1 into the
					// transaction's view (Section 2.4). The multi-version
					// runtime buffers slot-granular at any setting.
					cls, _ := s.DefineClass("C", Field{Name: "f"}, Field{Name: "g"})
					o := s.New(cls)
					s.Heap.Publish(o)
					var g uint64
					if err := s.Atomic(func(tx Tx) error {
						tx.Write(o, 0, 1)
						o.StoreSlot(1, 7) // a racing plain store the span either snapshotted or did not
						g = tx.Read(o, 1)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					spans := gran == 2 && rt == "lazy" && !a.strong
					if stale := g != 7; stale != spans {
						t.Errorf("read of the neighbouring slot = %d: buffered in a span = %v, want %v", g, stale, spans)
					}
					s.Write(o, 0, 5)
					if got := s.Read(o, 0); got != 5 {
						t.Errorf("non-transactional round trip = %d, want 5", got)
					}
				})
			}
		}
	}
}

// TestBadConfig covers the errors outside TestAssembly's table.
func TestBadConfig(t *testing.T) {
	if _, err := NewSystem(Config{Versioning: "nosuch"}); err == nil || !strings.Contains(err.Error(), "unknown runtime") {
		t.Errorf("unknown runtime: err = %v, want stmapi.New's", err)
	}
	if _, err := NewSystem(Config{Versioning: "nosuch", Strong: true}); err == nil || !strings.Contains(err.Error(), "unknown runtime") {
		t.Errorf("unknown runtime, strong: err = %v, want stmapi.New's", err)
	}
	if _, err := NewSystem(Config{DEA: true}); err == nil {
		t.Error("DEA without Strong accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewSystem did not panic")
		}
	}()
	MustNewSystem(Config{DEA: true})
}

func ExampleSystem_Atomic() {
	s := MustNewSystem(Config{Strong: true})
	acct, _ := s.DefineClass("Account", Field{Name: "balance"})
	a, b := s.New(acct), s.New(acct)
	a.StoreSlot(0, 100)
	_ = s.Atomic(func(tx Tx) error {
		tx.Write(a, 0, tx.Read(a, 0)-25)
		tx.Write(b, 0, tx.Read(b, 0)+25)
		return nil
	})
	fmt.Println(s.Read(a, 0), s.Read(b, 0))
	// Output: 75 25
}
