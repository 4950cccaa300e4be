package metrics

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/causal"
	"repro/internal/durable"
	"repro/internal/objmodel"
	"repro/internal/stm"
	"repro/internal/stmapi"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden schema files")

// TestConcurrentRegisterSnapshotHandler hammers the registry from three
// sides at once — registration (both fresh and replacing names), direct
// snapshots, and the HTTP handler — to prove the locking under -race.
func TestConcurrentRegisterSnapshotHandler(t *testing.T) {
	reg := NewRegistry()
	h := objmodel.NewHeap()
	rt := stm.New(h, stmapi.CommonConfig{})
	reg.RegisterRuntime("seed", rt)

	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	const workers = 4
	const iters = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() { // registration side: fresh names and replacements
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fresh := stm.New(objmodel.NewHeap(), stmapi.CommonConfig{})
				reg.RegisterRuntime(fmt.Sprintf("rt-%d-%d", w, i%5), fresh)
				reg.RegisterRuntime("seed", fresh)
			}
		}()
		wg.Add(1)
		go func() { // snapshot side
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, s := range reg.Snapshot() {
					if s.Name == "" || s.Stats == nil {
						t.Error("malformed snapshot during concurrent registration")
						return
					}
				}
			}
		}()
		wg.Add(1)
		go func() { // HTTP side
			defer wg.Done()
			client := srv.Client()
			for i := 0; i < iters/5; i++ {
				resp, err := client.Get(srv.URL)
				if err != nil {
					t.Error(err)
					return
				}
				var snaps []RuntimeSnapshot
				err = json.NewDecoder(resp.Body).Decode(&snaps)
				resp.Body.Close()
				if err != nil {
					t.Errorf("handler served invalid JSON: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// collectKeys flattens a JSON value into sorted "a.b.c" key paths. Array
// elements collapse to "[]" so variable-length lists (hotspots) do not
// destabilize the schema.
func collectKeys(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, vv := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			collectKeys(p, vv, out)
		}
	case []any:
		for _, vv := range x {
			collectKeys(prefix+".[]", vv, out)
		}
	}
}

// TestMetricsSchemaGolden pins the /metrics JSON key set: stmtop and any
// scraper key on exact field names, so a rename must show up as a golden
// diff here, not as silently blank dashboard lines. Regenerate with
// `go test ./internal/metrics -run Golden -update`.
func TestMetricsSchemaGolden(t *testing.T) {
	h := objmodel.NewHeap()
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "GCell",
		Fields: []objmodel.Field{{Name: "a"}},
	})
	o := h.New(cls)
	rt := stm.New(h, stmapi.CommonConfig{})
	tr := trace.New(trace.Config{ShardCapacity: 256})
	rec := causal.NewRecorder(causal.Config{})
	tr.SetSink(rec)
	rt.SetTracer(tr)
	for i := 0; i < 10; i++ {
		if err := rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, tx.Read(o, 0)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	reg := NewRegistry()
	reg.RegisterRuntime("rt", rt)
	data, err := json.Marshal(reg.Snapshot()[0])
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	keySet := map[string]bool{}
	collectKeys("", decoded, keySet)
	// by_kind's members track which events happened to fire, not schema.
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		if strings.HasPrefix(k, "trace.by_kind.") {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	got := strings.Join(keys, "\n") + "\n"

	golden := filepath.Join("testdata", "schema_eager_causal.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("/metrics JSON schema drifted from golden (rerun with -update if intentional).\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestDurabilitySchemaGolden pins the durability line's JSON key set the
// same way: a durable.Store-backed runtime must export the WAL/checkpoint
// profile under `durability`, and renaming any of its fields must surface
// as a golden diff. Regenerate with
// `go test ./internal/metrics -run Golden -update`.
func TestDurabilitySchemaGolden(t *testing.T) {
	store, err := durable.Open(durable.Options{
		Dir:     t.TempDir(),
		Runtime: "eager",
	}, func(h *objmodel.Heap) error {
		h.NewArray(4, false)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	arr := store.Heap().Get(objmodel.Ref(1))
	for i := 0; i < 10; i++ {
		if err := store.Atomic(func(tx stmapi.Txn) error {
			tx.Write(arr, 0, tx.Read(arr, 0)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	reg := NewRegistry()
	reg.RegisterStore("durable", store)
	snap := reg.Snapshot()[0]
	if snap.Durability == nil {
		t.Fatal("RegisterStore snapshot missing durability line")
	}
	if snap.Durability.WALAppends < 10 {
		t.Fatalf("durability line reports %d WAL appends, want >= 10", snap.Durability.WALAppends)
	}
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	keySet := map[string]bool{}
	collectKeys("", decoded, keySet)
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	got := strings.Join(keys, "\n") + "\n"

	golden := filepath.Join("testdata", "schema_eager_durable.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("durability /metrics JSON schema drifted from golden (rerun with -update if intentional).\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCausalLineExported checks the satellite wiring end to end: a tracer
// with a causal.Recorder sink must surface a `causal` object in the
// runtime's snapshot, and absence of a sink must omit it.
func TestCausalLineExported(t *testing.T) {
	h := objmodel.NewHeap()
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "CCell",
		Fields: []objmodel.Field{{Name: "a"}},
	})
	o := h.New(cls)
	rt := stm.New(h, stmapi.CommonConfig{})
	tr := trace.New(trace.Config{})
	rec := causal.NewRecorder(causal.Config{})
	tr.SetSink(rec)
	rt.SetTracer(tr)
	for i := 0; i < 5; i++ {
		if err := rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	reg := NewRegistry()
	reg.RegisterRuntime("rt", rt)
	s := reg.Snapshot()[0]
	if s.Causal == nil {
		t.Fatal("snapshot missing causal line despite recorder sink")
	}
	if s.Causal.Commits != 5 || s.Causal.Attempts != 5 {
		t.Errorf("causal line = %+v, want 5 commits/attempts", s.Causal)
	}

	tr.SetSink(nil)
	if s := reg.Snapshot()[0]; s.Causal != nil {
		t.Error("causal line still exported after sink removal")
	}
}
