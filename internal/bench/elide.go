package bench

// Barrier-elision A/B measurement (`stmbench -fig elide`, BENCH_010): the
// same self-validating workload (internal/workloads/elidewl) runs once
// with no manifest — every object born shared, every NT access through
// the full Figure 9 barriers — and once under the manifest the
// whole-program NAIT/TL analyses produce for it, where the provably
// private sites are born Private and ride the Figure 10 one-load fast
// paths. The headline number is ns per NT-barriered access; the
// private-hit counters show how much traffic the manifest actually
// elided. A final short run re-executes the manifest side with the
// soundness oracle attached (and a causal flight recorder behind it), so
// the committed benchmark is also a zero-breach certificate.

import (
	"fmt"
	"strings"

	"repro/internal/analysis/oracle"
	"repro/internal/causal"
	"repro/internal/elide"
	"repro/internal/objmodel"
	"repro/internal/trace"
	"repro/internal/vetstm/interproc"
	"repro/internal/vetstm/vetload"
	"repro/internal/workloads/elidewl"
)

// ElideWorkloadPackage is the module-relative package pattern the elision
// manifest is built from.
const ElideWorkloadPackage = "./internal/workloads/elidewl"

// BuildElideManifest runs the whole-program NAIT/TL analyses over the
// elide workload package, in process — the same pipeline as
// `stmvet elide ./internal/workloads/elidewl`. dir locates the module
// (any directory inside it).
func BuildElideManifest(dir string) (*elide.Manifest, interproc.Stats, error) {
	root, err := vetload.ModuleDir(dir)
	if err != nil {
		return nil, interproc.Stats{}, err
	}
	pkgs, err := vetload.Load(root, ElideWorkloadPackage)
	if err != nil {
		return nil, interproc.Stats{}, err
	}
	res, err := interproc.Analyze(pkgs, interproc.Options{Tool: "stmbench elide"})
	if err != nil {
		return nil, interproc.Stats{}, err
	}
	return res.Manifest, res.Stats, nil
}

// ElideResult is one side of the A/B measurement, flattened for JSON.
type ElideResult struct {
	Name     string `json:"name"` // "elide/off" or "elide/on"
	Manifest bool   `json:"manifest"`
	Workers  int    `json:"workers"`
	Items    int    `json:"items"`
	Scratch  int    `json:"scratch"`
	TxnOps   int    `json:"txn_ops"`

	ElapsedNs int64 `json:"elapsed_ns"` // whole run, incl. handoff ping-pong and txns
	NTOps     int64 `json:"nt_ops"`     // barriered reads + writes, all phases

	// The headline metric comes from the scratch phase only: tight
	// barriered read/write loops with no allocation or scheduling inside
	// the timed region, so ns_per_nt_op is pure barrier cost (total
	// elapsed is dominated by the handoff spin-waits on both sides).
	ScratchNs  int64   `json:"scratch_ns"`
	ScratchOps int64   `json:"scratch_ops"`
	NsPerNTOp  float64 `json:"ns_per_nt_op"` // scratch_ns / scratch_ops

	Reads         int64   `json:"reads"`
	Writes        int64   `json:"writes"`
	PrivateReads  int64   `json:"private_reads"`
	PrivateWrites int64   `json:"private_writes"`
	PrivateHitPct float64 `json:"private_hit_pct"` // private / total accesses

	// Manifest-side extras.
	ElidableSites int   `json:"elidable_sites,omitempty"` // distinct sites the manifest elides
	Breaches      int64 `json:"breaches"`                 // soundness-oracle verdict (0 = certified)
	TrackedAllocs int64 `json:"tracked_allocs,omitempty"` // manifest-matched allocations in the oracle pass
}

// elideConfig sizes the workload for one scale factor.
func elideConfig(scale int) elidewl.Config {
	if scale < 1 {
		scale = 1
	}
	return elidewl.Config{
		Workers: 4,
		Items:   512 * scale,
		Scratch: 16384 * scale,
		TxnOps:  1024 * scale,
	}
}

// runElideSide runs one side Reps times and keeps the fastest run (the
// workload self-validates, so every rep is also a correctness check).
func runElideSide(name string, cfg elidewl.Config) (ElideResult, error) {
	var best elidewl.Result
	for rep := 0; rep < Reps; rep++ {
		res, err := elidewl.Run(cfg)
		if err != nil {
			return ElideResult{}, err
		}
		if rep == 0 || res.ScratchNS < best.ScratchNS {
			best = res
		}
	}
	st := best.Stats
	r := ElideResult{
		Name:     name,
		Manifest: cfg.Manifest != nil,
		Workers:  cfg.Workers, Items: cfg.Items, Scratch: cfg.Scratch, TxnOps: cfg.TxnOps,
		ElapsedNs:     best.Elapsed.Nanoseconds(),
		ScratchNs:     best.ScratchNS,
		ScratchOps:    best.ScratchOps,
		Reads:         st.Reads.Load(),
		Writes:        st.Writes.Load(),
		PrivateReads:  st.PrivateReads.Load(),
		PrivateWrites: st.PrivateWrites.Load(),
	}
	r.NTOps = r.Reads + r.Writes
	if r.ScratchOps > 0 {
		r.NsPerNTOp = float64(r.ScratchNs) / float64(r.ScratchOps)
	}
	if r.NTOps > 0 {
		r.PrivateHitPct = 100 * float64(r.PrivateReads+r.PrivateWrites) / float64(r.NTOps)
	}
	return r, nil
}

// RunElideSweep measures the manifest-off and manifest-on sides, then
// certifies the manifest with a short oracle-attached pass. A non-nil
// error with non-nil results means the measurement ran but the oracle
// found breaches — callers should treat that as a hard failure.
func RunElideSweep(m *elide.Manifest, scale int) ([]ElideResult, error) {
	base := elideConfig(scale)

	off, err := runElideSide("elide/off", base)
	if err != nil {
		return nil, err
	}

	onCfg := base
	onCfg.Manifest = m
	on, err := runElideSide("elide/on", onCfg)
	if err != nil {
		return nil, err
	}
	for _, s := range m.Index() {
		if elide.Elidable(s.Class) {
			on.ElidableSites++
		}
	}

	// Certification pass: small, observed, off the clock. The oracle sees
	// allocations (heap observer) and, as the sink of the one tracer the
	// runtime and the barriers share, NT and transactional accesses (teed
	// into a flight recorder for causal context on any breach).
	orcCfg := base
	orcCfg.Manifest = m
	orcCfg.Items /= 4
	orcCfg.Scratch /= 4
	orcCfg.TxnOps /= 4
	rec := causal.NewRecorder(causal.Config{})
	tracer := trace.New(trace.Config{})
	var orc *oracle.Oracle
	orcCfg.OnSetup = func(h *objmodel.Heap) {
		orc = oracle.Attach(h, oracle.Config{Recorder: rec})
		tracer.SetSink(orc)
	}
	orcCfg.Tracer = tracer
	if _, err := elidewl.Run(orcCfg); err != nil {
		return nil, err
	}
	on.Breaches = orc.Total()
	on.TrackedAllocs = orc.Tracked()

	results := []ElideResult{off, on}
	if err := orc.Err(); err != nil {
		return results, fmt.Errorf("bench: elision manifest failed certification: %w", err)
	}
	return results, nil
}

// FormatElide renders the A/B table with the speedup and certification
// lines the paper-style summary wants.
func FormatElide(results []ElideResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "barrier elision: NT-access cost with and without the stmvet manifest\n")
	fmt.Fprintf(&b, "(ns/op is the scratch phase: tight barriered loops, no handoff noise)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %10s %14s %14s %9s\n",
		"config", "nt-ops", "scratch-ops", "ns/op", "private-reads", "private-writes", "hit-rate")
	var off, on *ElideResult
	for i := range results {
		r := &results[i]
		fmt.Fprintf(&b, "%-10s %12d %12d %10.1f %14d %14d %8.1f%%\n",
			r.Name, r.NTOps, r.ScratchOps, r.NsPerNTOp, r.PrivateReads, r.PrivateWrites, r.PrivateHitPct)
		if r.Manifest {
			on = r
		} else {
			off = r
		}
	}
	if off != nil && on != nil && on.NsPerNTOp > 0 {
		fmt.Fprintf(&b, "manifest speedup: %.2fx per NT access (%d elidable site(s))\n",
			off.NsPerNTOp/on.NsPerNTOp, on.ElidableSites)
		if on.Breaches == 0 {
			fmt.Fprintf(&b, "soundness oracle: 0 breaches across %d tracked allocation(s)\n", on.TrackedAllocs)
		} else {
			fmt.Fprintf(&b, "soundness oracle: %d BREACH(ES) — manifest is unsound\n", on.Breaches)
		}
	}
	return b.String()
}
