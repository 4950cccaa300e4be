package main

import (
	"fmt"

	"repro/internal/stmapi"
)

// check is one correctness check of a workload; the command exits non-zero
// when a gating check fails. An advisory check (Gate false) is reported only.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Gate   bool   `json:"gate"`
	Detail string `json:"detail,omitempty"`
}

// wlResult is one workload's entry in the output envelope.
type wlResult struct {
	Name           string             `json:"name"`
	E2E            map[string]float64 `json:"e2e,omitempty"`    // untraced runs
	Layers         map[string]float64 `json:"layers,omitempty"` // traced runs
	OpsAttempted   int64              `json:"ops_attempted"`
	OpsFailed      int64              `json:"ops_failed"`
	Checks         []check            `json:"checks"`
	TailPercentile map[string]float64 `json:"tail_percentile,omitempty"` // which percentile <module>.op_tail_us is

	setupS float64       // sum of the segments' median set-up times: setup_s
	spans  []segmentSpan // traced runs: what -trace-out writes
	nextID int
}

func newResult(c config, name string) *wlResult {
	r := &wlResult{Name: name, nextID: 1} // span id 0 means no parent
	if !c.traced {
		r.E2E = map[string]float64{}
		return r
	}
	r.Layers = map[string]float64{}
	for _, d := range perLayer() {
		r.Layers[d.Name] = 0
	}
	r.TailPercentile = map[string]float64{}
	return r
}

// correct reports whether every gating check passed.
func (r *wlResult) correct() bool {
	for _, c := range r.Checks {
		if c.Gate && !c.OK {
			return false
		}
	}
	return true
}

// segRun is a segment together with what the workload knows about it.
type segRun struct {
	seg      *segment
	rt       stmapi.Runtime
	accesses int  // transactional accesses per operation
	extra    bool // not one of the three reported runtimes: counted and checked, reported by the workload

	// collect is the workload's own bookkeeping, called while the system is
	// still open; check then decides whether the segment's outputs are correct.
	collect func(s segResult, st stmapi.StatsSnapshot)
	check   func() error
}

// measure runs the segments in rotation, then checks, books and releases
// them one by one (releasing is what measures <module>.heap_live_mb).
func (r *wlResult) measure(c config, runs []*segRun) error {
	segs := make([]*segment, len(runs))
	for i, run := range runs {
		segs[i] = run.seg
	}
	if !c.traced {
		r.E2E["setup_s"] = r.setupS
	}
	runSegments(segs)
	clear(segs) // heapLive below must see the last reference to a segment go
	for i, run := range runs {
		s, err := run.seg.result()
		if err != nil {
			return err
		}
		st := run.rt.Stats()
		run.collect(s, st)
		checkErr := run.check()
		r.keepSpans(run.seg)
		extra, accesses := run.extra, run.accesses
		if c.traced {
			s.heapLiveMB = heapLive(func() { runs[i], run = nil, nil })
		}
		r.count(s, checkErr)
		if !extra {
			r.report(c, s, st, accesses)
		}
	}
	return nil
}

// count books a segment's operations and its correctness check; a failed
// check fails every operation of the segment.
func (r *wlResult) count(s segResult, checkErr error) {
	r.OpsAttempted += s.ops
	if checkErr != nil {
		s.failed = s.ops
	}
	r.OpsFailed += s.failed
	r.Checks = append(r.Checks, check{Name: s.label + ".check", OK: checkErr == nil, Gate: true, Detail: errText(checkErr)})
}

// report turns a runtime's segment into metrics: end-to-end ones from an
// untraced run, the runtime module's layer metrics from a traced one.
// accesses is the number of transactional accesses one operation makes.
func (r *wlResult) report(c config, s segResult, st stmapi.StatsSnapshot, accesses int) {
	if !c.traced {
		r.E2E[s.label+".ops_per_s"] = s.opsPerS
		return
	}
	p := layerPrefix[s.label] + "."
	t := &s.totals
	ops := float64(s.sampled)
	r.Layers[p+"begin_ns"] = ratio(float64(t[kBegin].self), float64(t[kBegin].n))
	r.Layers[p+"access_ns"] = ratio(float64(t[kBody].self), ops*float64(accesses))
	r.Layers[p+"commit_ns"] = ratio(float64(t[kCommit].self), float64(t[kCommit].n))
	r.Layers[p+"retry_ns_per_op"] = ratio(float64(t[kBodyAborted].total+t[kRetryGap].total), ops)
	r.Layers[p+"attempts_per_op"] = ratio(float64(st.Starts), float64(st.Commits))
	r.Layers[p+"abort_share"] = ratio(float64(st.Aborts), float64(st.Starts))
	r.Layers[p+"fastpath_share"] = ratio(float64(st.FastpathValidations), float64(st.FastpathValidations+st.FallbackWalks))
	r.Layers[p+"alloc_b_per_op"] = s.allocPerOp
	r.Layers[p+"heap_live_mb"] = s.heapLiveMB
	r.Layers[p+"op_p50_us"] = s.p50Us
	r.Layers[p+"op_tail_us"] = s.tailUs
	r.Layers[p+"stall_share"] = s.stallShare
	r.TailPercentile[layerPrefix[s.label]] = s.tailPct
}

// keepSpans moves a traced segment's spans into the result for the span file.
func (r *wlResult) keepSpans(seg *segment) {
	if !seg.traced {
		return
	}
	var out segmentSpan
	out, r.nextID = exportSpans(seg.label, seg.workers, seg.vfsSpans, r.nextID)
	r.spans = append(r.spans, out)
}

// layerSum is the advisory check of the traced partitioned workloads, where
// one operation is one transaction that never waits for another: the phases
// seen from outside must add up to what an operation costs, G over the traced
// segment's ops_per_s, within 15%.
func (r *wlResult) layerSum(c config, label string, opsPerS float64, accesses int) {
	p := layerPrefix[label] + "."
	sum := r.Layers[p+"begin_ns"] + float64(accesses)*r.Layers[p+"access_ns"] + r.Layers[p+"commit_ns"] + r.Layers[p+"retry_ns_per_op"]
	perOp := float64(c.workers) / opsPerS * 1e9
	r.Checks = append(r.Checks, check{
		Name: label + ".layer_sum", OK: sum > 0.85*perOp && sum < 1.15*perOp,
		Detail: fmt.Sprintf("begin + %d*access + commit + retry = %.0f ns against G / ops_per_s = %.0f ns (%+.1f%%) at %.0f traced ops/s",
			accesses, sum, perOp, (sum/perOp-1)*100, opsPerS),
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// pooled sums span totals over the segments of a workload, for the layers
// that are not one runtime's (conflict, strong, objmodel, durable).
type pooled struct {
	totals  spanTotals
	sampled int64
	ops     int64
}

func (p *pooled) add(s segResult) {
	p.totals.add(&s.totals)
	p.sampled += s.sampled
	p.ops += s.ops
}
