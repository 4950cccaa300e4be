package workloads

import (
	"testing"

	"repro/internal/objmodel"
	"repro/internal/stm"
	"repro/internal/stmapi"
)

func TestNewStampUnknown(t *testing.T) {
	h := objmodel.NewHeap()
	if _, err := NewStamp("nope", h); err == nil {
		t.Fatal("NewStamp(nope) did not error")
	}
}

// TestStampBodiesCommit drives each workload body through the eager runtime
// and checks every transaction commits (the mixes must be runnable, not
// just well-typed).
func TestStampBodiesCommit(t *testing.T) {
	for _, name := range StampNames() {
		t.Run(name, func(t *testing.T) {
			h := objmodel.NewHeap()
			w, err := NewStamp(name, h)
			if err != nil {
				t.Fatal(err)
			}
			if w.Name != name || w.Mix == "" {
				t.Errorf("workload metadata: Name=%q Mix=%q", w.Name, w.Mix)
			}
			rt := stm.New(h, stmapi.CommonConfig{})
			rng := uint64(1)
			body := func(tx stmapi.Txn) error {
				w.Body(tx, &rng)
				return nil
			}
			const n = 500
			for i := 0; i < n; i++ {
				if err := rt.Atomic(body); err != nil {
					t.Fatal(err)
				}
			}
			if got := rt.Stats().Commits; got != n {
				t.Errorf("commits = %d, want %d", got, n)
			}
		})
	}
}
