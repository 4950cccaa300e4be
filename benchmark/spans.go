package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Spans are recorded here, in the benchmark's own files, around each call
// into a layer; nothing inside the runtimes is instrumented. A sampled
// operation is a root span whose children are the phases of each Atomic call
// (begin, one body per attempt, retry gaps, commit) and whatever the timing
// wrappers (conflict policy, commit sink, barrier batches) hang under the
// phase that was open when they ran. A layer's self time is its span minus
// its children.

var epoch = time.Now()

// now is the monotonic clock every span and latency sample reads.
func now() int64 { return int64(time.Since(epoch)) }

type spanKind uint8

const (
	kOp spanKind = iota
	kBegin
	kBody        // the attempt that committed
	kBodyAborted // an attempt that did not
	kRetryGap    // end of an aborted attempt to re-entry of the body
	kCommit      // final body return to Atomic return
	kConflict
	kAppend
	kWait
	kPublicRead
	kPublicWrite
	kPrivate
	kPlain // unbarriered accesses of the weak-atomicity baseline
	kAlloc
	kPublish
	kVfsWrite // file-system spans: recorded by whichever goroutine did the I/O, never in a recorder
	kVfsSync
	numKinds
)

var kindNames = [numKinds]string{
	"op", "begin", "body", "body_aborted", "retry_gap", "commit",
	"conflict.resolve", "durable.append", "durable.wait",
	"strong.public_read", "strong.public_write", "strong.private", "nt.plain",
	"objmodel.alloc", "objmodel.publish", "vfs.write", "vfs.sync",
}

// phase kinds tile an Atomic call edge to edge: neighbours share one clock
// reading. Every other kind is bracketed by two readings of its own.
func (k spanKind) phase() bool { return k >= kBegin && k <= kCommit }

type span struct {
	kind       spanKind
	parent     int32 // index in the same recorder; -1 for a root
	start, end int64
	seq        int64 // operation number, roots only
}

// kindTotals accumulates every span of one kind over a segment.
type kindTotals struct {
	n     int64
	total int64 // sum of durations, ns
	self  int64 // sum of durations minus children, clock cost removed
}

// spanTotals is one kindTotals per span kind.
type spanTotals [numKinds]kindTotals

func (t *spanTotals) add(o *spanTotals) {
	for k := range t {
		t[k].n += o[k].n
		t[k].total += o[k].total
		t[k].self += o[k].self
	}
}

// maxKeptSpans bounds what one worker keeps per segment for the span file;
// totals are accumulated for every sampled operation regardless.
const maxKeptSpans = 4096

// recorder is one worker's span memory. Only the worker's goroutine touches
// it (the timing wrappers run on the goroutine of the transaction they time).
type recorder struct {
	spans   []span
	root    int32 // current operation's root span
	totals  spanTotals
	sampled int64 // operations recorded
	self    []int64
}

func (r *recorder) open(kind spanKind, parent int32, start int64) int32 {
	r.spans = append(r.spans, span{kind: kind, parent: parent, start: start})
	return int32(len(r.spans) - 1)
}

func (r *recorder) add(kind spanKind, parent int32, start, end int64) {
	r.spans = append(r.spans, span{kind: kind, parent: parent, start: start, end: end})
}

func (r *recorder) beginOp(seq, start int64) {
	r.root = r.open(kOp, -1, start)
	r.spans[r.root].seq = seq
}

// endOp closes the root, folds the operation's spans into the totals and
// forgets them again once the worker holds enough for the span file.
//
// clockNs is the calibrated cost of one now() call. A span bracketed by two
// readings is that much longer than the work inside it, and the remainder of
// those two readings falls into its parent's self time; both are removed so
// that the phases of a transaction add up to what the transaction costs
// unobserved. endOp returns all it removed: what the readings inside the
// operation added to its latency.
func (r *recorder) endOp(end, clockNs int64) (readings int64) {
	r.spans[r.root].end = end
	op := r.spans[r.root:]
	self := r.self[:0]
	for _, s := range op {
		self = append(self, s.end-s.start)
	}
	for i, s := range op[1:] {
		p := s.parent - r.root
		self[p] -= s.end - s.start
		self[i+1] -= clockNs
		readings += clockNs
		if !s.kind.phase() {
			self[p] -= clockNs
			readings += clockNs
		}
	}
	for i, s := range op {
		t := &r.totals[s.kind]
		t.n++
		t.total += s.end - s.start
		t.self += self[i]
	}
	r.self = self
	r.sampled++
	if len(r.spans) > maxKeptSpans {
		r.spans = r.spans[:r.root]
	}
	return readings
}

// calibrateClock measures what one now() costs: the median over batches of
// the mean of back-to-back calls.
func calibrateClock() int64 {
	const batches, calls = 31, 2000
	means := make([]float64, batches)
	for b := range means {
		start := now()
		for i := 0; i < calls; i++ {
			now()
		}
		means[b] = float64(now()-start) / (calls + 1)
	}
	return int64(median(means) + 0.5)
}

// spanFile is what -trace-out holds: per segment and worker, the spans of the
// first thousand or so sampled operations, plus the file-system spans recorded
// on the goroutine that did the I/O (no parent; join them by time overlap).
type spanFile struct {
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Segments []segmentSpan `json:"segments"`
}

type segmentSpan struct {
	Runtime string     `json:"runtime"`
	Spans   []spanJSON `json:"spans"`
}

type spanJSON struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Worker  int    `json:"worker"`
	Seq     int64  `json:"seq,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// flusherWorker is the worker number file-system spans carry.
const flusherWorker = -1

// exportSpans numbers a segment's spans: ids are unique within the file,
// nextID is the first free one.
func exportSpans(label string, workers []*worker, vfsSpans []span, nextID int) (segmentSpan, int) {
	out := segmentSpan{Runtime: label}
	for _, w := range workers {
		base := nextID
		for i, s := range w.rec.spans {
			j := spanJSON{ID: base + i, Name: kindNames[s.kind], Worker: w.id, Seq: s.seq, StartNs: s.start, EndNs: s.end}
			if s.parent >= 0 {
				j.Parent = base + int(s.parent)
			}
			out.Spans = append(out.Spans, j)
		}
		nextID += len(w.rec.spans)
	}
	for _, s := range vfsSpans {
		out.Spans = append(out.Spans, spanJSON{ID: nextID, Name: kindNames[s.kind], Worker: flusherWorker, StartNs: s.start, EndNs: s.end})
		nextID++
	}
	return out, nextID
}

func writeSpanFile(path string, f *spanFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
