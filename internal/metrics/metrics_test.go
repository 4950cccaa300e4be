package metrics

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/lazystm"
	"repro/internal/objmodel"
	"repro/internal/stm"
	"repro/internal/stmapi"
	"repro/internal/trace"
)

func runSomeTxns(t *testing.T) (*stm.Runtime, *lazystm.Runtime) {
	t.Helper()
	h := objmodel.NewHeap()
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "MCell",
		Fields: []objmodel.Field{{Name: "a"}, {Name: "b"}},
	})
	o := h.New(cls)
	ert := stm.New(h, stmapi.CommonConfig{})
	ert.SetTracer(trace.New(trace.Config{ShardCapacity: 256}))
	for i := 0; i < 20; i++ {
		if err := ert.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, tx.Read(o, 0)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	h2 := objmodel.NewHeap()
	cls2 := h2.MustDefineClass(objmodel.ClassSpec{
		Name:   "MCell",
		Fields: []objmodel.Field{{Name: "a"}},
	})
	o2 := h2.New(cls2)
	lrt := lazystm.New(h2, stmapi.CommonConfig{})
	for i := 0; i < 7; i++ {
		if err := lrt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o2, 0, tx.Read(o2, 0)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return ert, lrt
}

func TestRegistrySnapshot(t *testing.T) {
	ert, lrt := runSomeTxns(t)
	reg := NewRegistry()
	reg.RegisterRuntime("eager-main", ert)
	reg.RegisterRuntime("lazy-main", lrt)

	snaps := reg.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	e, l := snaps[0], snaps[1]
	if e.Name != "eager-main" || e.Kind != "eager" {
		t.Errorf("eager snapshot header = %+v", e)
	}
	if e.Stats["commits"] != 20 || e.Stats["txn_writes"] != 20 {
		t.Errorf("eager stats = %v", e.Stats)
	}
	if e.Trace == nil {
		t.Fatal("eager snapshot missing trace (tracer installed)")
	}
	if e.Trace.ByKind["commit"] != 20 || e.Trace.CommitLatency.Count != 20 {
		t.Errorf("trace snapshot = %+v", e.Trace)
	}
	if l.Kind != "lazy" || l.Stats["commits"] != 7 {
		t.Errorf("lazy snapshot = %+v", l)
	}
	if l.Trace != nil {
		t.Error("lazy snapshot has trace but no tracer was installed")
	}
	if e.UnixNs == 0 {
		t.Error("snapshot missing timestamp")
	}
}

func TestRegistryReplaceByName(t *testing.T) {
	ert, _ := runSomeTxns(t)
	reg := NewRegistry()
	reg.RegisterRuntime("rt", ert)
	fresh := stm.New(objmodel.NewHeap(), stmapi.CommonConfig{})
	reg.RegisterRuntime("rt", fresh)
	snaps := reg.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %d, want 1 (replacement, not append)", len(snaps))
	}
	if snaps[0].Stats["commits"] != 0 {
		t.Errorf("commits = %d, want 0 from the replacing runtime", snaps[0].Stats["commits"])
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	ert, lrt := runSomeTxns(t)
	reg := NewRegistry()
	reg.RegisterRuntime("eager-main", ert)
	reg.RegisterRuntime("lazy-main", lrt)
	reg.PublishExpvar("stm-test-registry")
	reg.PublishExpvar("stm-test-registry") // second publish must not panic

	srv, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}
	var snaps []RuntimeSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snaps); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[0].Stats["commits"] != 20 {
		t.Fatalf("decoded = %+v", snaps)
	}
	if snaps[0].Trace == nil || snaps[0].Trace.CommitLatency.P50Ns <= 0 {
		t.Errorf("trace percentiles missing over the wire: %+v", snaps[0].Trace)
	}

	vars, err := http.Get("http://" + srv.Addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vars.Body.Close()
	var all map[string]json.RawMessage
	if err := json.NewDecoder(vars.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	if _, ok := all["stm-test-registry"]; !ok {
		t.Error("expvar missing published registry")
	}
}

func TestRobustnessCountersExported(t *testing.T) {
	h := objmodel.NewHeap()
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "RCell",
		Fields: []objmodel.Field{{Name: "a"}},
	})
	o := h.New(cls)
	ert := stm.New(h, stmapi.CommonConfig{})
	if err := ert.AtomicIrrevocable(func(tx stmapi.Txn) error {
		tx.Write(o, 0, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.RegisterRuntime("rt", ert)
	s := reg.Snapshot()[0]
	if s.Stats["irrevocable_txns"] != 1 {
		t.Errorf("irrevocable_txns = %d, want 1", s.Stats["irrevocable_txns"])
	}
	if s.Stats["irrevocable_ns"] <= 0 {
		t.Errorf("irrevocable_ns = %d, want > 0", s.Stats["irrevocable_ns"])
	}
	for _, key := range []string{"reaper_steals", "escalations"} {
		if _, ok := s.Stats[key]; !ok {
			t.Errorf("stat %q missing from exported snapshot", key)
		}
	}
}
