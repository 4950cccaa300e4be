package elidewl_test

import (
	"testing"

	"repro/internal/analysis/oracle"
	"repro/internal/causal"
	"repro/internal/objmodel"
	"repro/internal/trace"
	"repro/internal/vetstm/interproc"
	"repro/internal/vetstm/vetload"
	"repro/internal/workloads/elidewl"
)

// The workload self-validates, so a bare run is already a correctness
// check of the full Figure 9 barrier paths under -race.
func TestRunWithoutManifest(t *testing.T) {
	res, err := elidewl.Run(elidewl.Config{Workers: 2, Items: 64, Scratch: 256, TxnOps: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PrivateReads.Load() != 0 || res.Stats.PrivateWrites.Load() != 0 {
		t.Fatalf("no manifest, but private fast paths fired: reads=%d writes=%d",
			res.Stats.PrivateReads.Load(), res.Stats.PrivateWrites.Load())
	}
	if res.ScratchOps <= 0 || res.ScratchNS <= 0 {
		t.Fatalf("scratch phase not measured: ops=%d ns=%d", res.ScratchOps, res.ScratchNS)
	}
}

// End-to-end under -race: build the manifest with the real whole-program
// analyses, run the workload under it with the soundness oracle watching
// every allocation, NT access, and transactional access. The manifest
// must elide (private fast paths fire) and the oracle must stay silent.
func TestRunUnderAnalyzedManifestWithOracle(t *testing.T) {
	root, err := vetload.ModuleDir(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := vetload.Load(root, "./internal/workloads/elidewl")
	if err != nil {
		t.Fatal(err)
	}
	res, err := interproc.Analyze(pkgs, interproc.Options{Tool: "test"})
	if err != nil {
		t.Fatal(err)
	}

	rec := causal.NewRecorder(causal.Config{})
	tracer := trace.New(trace.Config{})
	var orc *oracle.Oracle
	out, err := elidewl.Run(elidewl.Config{
		Workers: 2, Items: 64, Scratch: 256, TxnOps: 64,
		Manifest: res.Manifest,
		Tracer:   tracer,
		OnSetup: func(h *objmodel.Heap) {
			orc = oracle.Attach(h, oracle.Config{Recorder: rec})
			tracer.SetSink(orc)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.PrivateReads.Load() == 0 && out.Stats.PrivateWrites.Load() == 0 {
		t.Fatal("manifest applied but no private fast path ever fired")
	}
	if err := orc.Err(); err != nil {
		t.Fatalf("soundness oracle breached on the analyzed manifest: %v", err)
	}
	if orc.Tracked() == 0 {
		t.Fatal("oracle tracked no manifest-matched allocations")
	}
}
