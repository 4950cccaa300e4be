package main

import (
	"fmt"

	"repro/internal/conflict"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/trace"
)

// The three in-memory workloads share one operation shape: a transaction over
// pairsPerOp random (object, slot) pairs, each incremented with probability
// updatePct and read otherwise. They differ in who shares objects with whom
// and in how often a pair is an update.

const (
	slotsPerObject = 4
	pairsPerOp     = 8
)

type memSpec struct {
	objects   int
	shared    bool // all workers on one pool; otherwise disjoint partitions
	updatePct int
}

// The partitioned pool is sized to stay in a core's L2 cache (a worker's half
// of 8192 objects is under 0.5 MB; the build host has 2 MB per core). The
// issue asked for 65 536 objects, 3.6 MB per worker: there the placement of a
// process's pages decides how much of a partition stays in L2, and eager's
// throughput read 0.90 to 1.45 million operations per second over six
// processes that differed in nothing else.
var (
	partitionedRead  = memSpec{objects: 8192, updatePct: 10}
	partitionedWrite = memSpec{objects: 8192, updatePct: 90}
	sharedHot        = memSpec{objects: 16, shared: true, updatePct: 90}
)

// memVariant is one segment of an in-memory workload.
type memVariant struct {
	label    string // end-to-end prefix, or the workload's own name for an extra segment
	runtime  string
	policy   string // conflict.ByName; "" is the runtime's default
	walk     bool   // CommonConfig.NoCommitClock: validate by walking the read set
	untraced bool   // an extra segment of the traced run that records no spans
	tracerOn bool   // install a trace.Tracer on the runtime
	allTimed bool   // time every operation, for a true maximum
}

type memSystem struct {
	heap *objmodel.Heap
	objs []*objmodel.Object
	rt   stmapi.Runtime
}

type access struct {
	obj    *objmodel.Object
	slot   int
	update bool
}

func runMemory(c config, name string, spec memSpec) (*wlResult, error) {
	res := newResult(c, name)
	variants := []memVariant{{label: "eager", runtime: "eager"}, {label: "lazy", runtime: "lazy"}, {label: "mvstm", runtime: "mvstm"}}
	if spec.shared {
		// Eager under the default Backoff collapses on this pool (see the
		// extra segment below); its gated figure is under timestamp.
		variants[0].policy = "timestamp"
		// Lazy under commit-clock validation loses an update on this pool
		// about once a minute (README, "A lost update in lazystm"), and a
		// workload's operations must not fail: it runs with the read-set walk.
		variants[1].walk = true
	}
	if c.traced {
		switch {
		case spec.shared:
			variants = append(variants, memVariant{label: "backoff_eager", runtime: "eager", untraced: true, allTimed: true})
		case name == "partitioned_read":
			variants = append(variants,
				memVariant{label: "untraced_eager", runtime: "eager", untraced: true},
				memVariant{label: "tracer_eager", runtime: "eager", untraced: true, tracerOn: true})
		}
	}

	var conflicts pooled
	var selfAborts, dooms, commits, clockTicks int64
	extra := map[string]segResult{}    // the traced run's extra segments, by label
	tracedRate := map[string]float64{} // ops_per_s of the traced segments, by label
	var runs []*segRun
	for _, v := range variants {
		seg := c.newSegment(v.label)
		if v.untraced {
			seg.traced, seg.sampleEvery = false, 64
		}
		if v.allTimed {
			seg.sampleEvery = 1
		}
		sys, setupS, err := timeSetup(c.setupReps, max(1, 1024/spec.objects), func() (*memSystem, error) { return buildMemory(spec, v, seg) }, nil)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, v.label, err)
		}
		res.setupS += setupS
		if v.tracerOn {
			sys.rt.SetTracer(trace.New(trace.Config{}))
		}

		incs := make([]counter, c.workers) // committed increments, per worker
		for g := 0; g < c.workers; g++ {
			w := seg.addWorker(c.seed, sys.rt.Atomic)
			pool := sys.objs
			if !spec.shared {
				per := len(sys.objs) / c.workers
				pool = sys.objs[g*per : (g+1)*per]
			}
			w.op = spec.op(pool, &w.rng, w.atomic, &incs[g].n)
		}

		clock0 := sys.heap.Clock().Load()
		run := &segRun{seg: seg, rt: sys.rt, accesses: pairsPerOp, extra: v.label != v.runtime,
			check: func() error { return checkSum(sys.objs, tally(incs)) }}
		run.collect = func(s segResult, st stmapi.StatsSnapshot) {
			switch {
			case run.extra:
				extra[v.label] = s
				return
			case !c.traced:
				return
			}
			tracedRate[v.label] = s.meanOpsPerS
			conflicts.add(s)
			selfAborts += st.SelfAborts
			dooms += st.DoomsIssued
			commits += st.Commits
			clockTicks += int64(sys.heap.Clock().Load() - clock0)
			if v.runtime == "mvstm" {
				var total int64
				for _, n := range tally(incs) {
					total += n
				}
				res.Layers["mvstm.ro_share"] = ratio(float64(st.ReadOnlyTxns), float64(st.Commits))
				res.Layers["mvstm.versions_per_update"] = ratio(float64(st.VersionsInstalled), float64(total))
				res.Layers["mvstm.versions_live"] = float64(st.VersionsLive)
				res.Layers["mvstm.watermark_lag"] = float64(st.WatermarkLag)
			}
		}
		runs = append(runs, run)
	}
	if err := res.measure(c, runs); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if !c.traced {
		return res, nil
	}

	if !spec.shared {
		for _, v := range variantNames {
			res.layerSum(c, v, tracedRate[v], pairsPerOp)
		}
	}
	t := &conflicts.totals
	res.Layers["conflict.resolves_per_op"] = ratio(float64(t[kConflict].n), float64(conflicts.sampled))
	res.Layers["conflict.wait_ns_per_op"] = ratio(float64(t[kConflict].self), float64(conflicts.sampled))
	res.Layers["conflict.self_aborts_per_kop"] = ratio(float64(selfAborts)*1e3, float64(commits))
	res.Layers["conflict.dooms_per_kop"] = ratio(float64(dooms)*1e3, float64(commits))
	res.Layers["objmodel.clock_advance_per_op"] = ratio(float64(clockTicks), float64(conflicts.ops))
	if s, ok := extra["backoff_eager"]; ok {
		res.Layers["conflict.backoff_eager_ops_per_s"] = s.meanOpsPerS
		res.Layers["conflict.backoff_eager_stall_share"] = s.stallShare
		res.Layers["conflict.backoff_eager_op_max_ms"] = s.maxMs
	}
	if base, ok := extra["untraced_eager"]; ok {
		res.Layers["trace.tracer_on_cost_pct"] = (1 - ratio(extra["tracer_eager"].meanOpsPerS, base.meanOpsPerS)) * 100
		res.Layers["harness.span_cost_pct"] = (1 - ratio(tracedRate["eager"], base.meanOpsPerS)) * 100
	}
	return res, nil
}

// op returns a worker's operation: draw pairsPerOp accesses to pool from rng,
// run them as one transaction through atomic, and add the increments of a
// transaction that committed to *incs.
func (spec memSpec) op(pool []*objmodel.Object, rng *splitmix, atomic func(func(stmapi.Txn) error) error, incs *int64) func() error {
	st := new(struct {
		_   pad
		acc [pairsPerOp]access
		_   pad
	})
	acc := &st.acc
	body := func(tx stmapi.Txn) error {
		for i := range acc {
			a := &acc[i]
			if val := tx.Read(a.obj, a.slot); a.update {
				tx.Write(a.obj, a.slot, val+1)
			}
		}
		return nil
	}
	return func() error {
		updates := int64(0)
		for i := range acc {
			r := rng.next()
			acc[i] = access{obj: pool[int((r>>32)*uint64(len(pool))>>32)], slot: int(r & (slotsPerObject - 1)), update: int(r>>8&0xffff)*100>>16 < spec.updatePct}
			if acc[i].update {
				updates++
			}
		}
		err := atomic(body)
		if err == nil {
			*incs += updates
		}
		return err
	}
}

// buildMemory is what setup_s times for an in-memory segment: a fresh heap,
// its objects, and a fresh runtime over them.
func buildMemory(spec memSpec, v memVariant, seg *segment) (*memSystem, error) {
	sys := &memSystem{heap: objmodel.NewHeap(), objs: make([]*objmodel.Object, spec.objects)}
	cls, err := sys.heap.DefineClass(objmodel.ClassSpec{Name: "Cell", Fields: scalarFields(slotsPerObject)})
	if err != nil {
		return nil, err
	}
	for i := range sys.objs {
		sys.objs[i] = sys.heap.New(cls)
	}
	cfg := stmapi.CommonConfig{NoCommitClock: v.walk}
	if v.policy != "" || seg.traced {
		policy, err := conflict.ByName(v.policy)
		if err != nil {
			return nil, err
		}
		cfg.Handler = policy
		if seg.traced {
			cfg.Handler = &timingPolicy{inner: policy, seg: seg}
		}
	}
	sys.rt, err = stmapi.New(v.runtime, sys.heap, cfg)
	return sys, err
}

// checkSum is the lost-update check: every update was an increment, so the
// slots must add up to the increments the workers saw commit.
func checkSum(objs []*objmodel.Object, incs []int64) error {
	var sum, want uint64
	for _, o := range objs {
		for s := 0; s < slotsPerObject; s++ {
			sum += o.LoadSlot(s)
		}
	}
	for _, n := range incs {
		want += uint64(n)
	}
	if sum != want {
		return fmt.Errorf("slots sum to %d, workers committed %d increments", sum, want)
	}
	return nil
}

// scalarFields declares n word fields, s0..s(n-1).
func scalarFields(n int) []objmodel.Field {
	fields := make([]objmodel.Field, n)
	for i := range fields {
		fields[i].Name = fmt.Sprintf("s%d", i)
	}
	return fields
}
