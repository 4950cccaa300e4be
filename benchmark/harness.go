package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stmapi"
)

// config is one run of one or more workloads.
type config struct {
	seed    uint64
	seconds float64 // measured time per workload, warm-up included, over all its segments
	traced  bool
	workers int    // G: worker goroutines, and GOMAXPROCS
	tmpRoot string // durable_bank's stores live in fresh directories under it
	clockNs int64  // calibrated cost of one now() call; traced runs only
	cpu     *cpuClock

	setupReps  int // set-ups timed per segment; setup_s sums their medians
	recoverOps int // operations logged for durable.recover_ms
}

// The schedule. A workload's segments (one per runtime) take turns: -seconds
// is cut into rounds that go to the segments in rotation, each segment's first
// round is warm-up, and a full garbage collection runs between rounds, off the
// clock. The reasons, all measured on the build host:
//
//   - Its speed moves by tens of percent for seconds at a time (other tenants;
//     a CPU that ramps up after idling; what a cache line costs to move
//     between its two processors, which changes with where the host puts
//     them). Segments run whole, one after the other, put such a disturbance
//     on one runtime; rounds spread over the run sample it four times per
//     runtime.
//   - Rounds much shorter than this let mvstm's collections, up to a second
//     long on its heap, run into the next runtime's round, and the collection
//     between rounds would then hide all of mvstm's own. At this length a
//     round of mvstm allocates about its live heap once, so it still pays for
//     a collection of its own on the clock, and always at the same phase.
//
// At the default -seconds 24 an untraced round is 1.6 s and a slice 100 ms:
// every runtime gets 1.6 s of warm-up and 6.4 s timed, in four rounds 4.8 s
// apart. A traced run uses a third of the time: rounds of 0.53 s, slices of
// 33 ms.
//
// A round is cut into slices by the goroutine that runs it: at every slice
// boundary it reads the clock, the workers' counters and the processor time
// the machine has handed out (cpuClock). result reduces the slices of the
// timed rounds.
const (
	roundsPerSegment = 5
	slicesPerRound   = 16
)

// Untraced, one operation in 64 is timed; traced, one in 16 is timed and
// recorded as spans.
func (c config) newSegment(label string) *segment {
	s := &segment{label: label, clockNs: c.clockNs, cpu: c.cpu, sampleEvery: 64,
		roundLen: time.Duration(c.seconds / (3 * roundsPerSegment) * float64(time.Second)),
		slices:   make([]slice, 0, (roundsPerSegment-1)*slicesPerRound)}
	if c.traced {
		s.traced, s.sampleEvery, s.roundLen = true, 16, s.roundLen/3
	}
	return s
}

// splitmix is the SplitMix64 generator every operation stream comes from.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// below returns a uniform value in [0, n).
func (s *splitmix) below(n int) int { return int((s.next() >> 32) * uint64(n) >> 32) }

// segment is one runtime on one workload: G workers in a closed loop, a round
// at a time.
type segment struct {
	label       string // end-to-end prefix, or a name of the workload's own for an extra segment
	traced      bool
	sampleEvery int
	clockNs     int64
	cpu         *cpuClock
	roundLen    time.Duration
	workers     []*worker

	timed bool // the round in progress is not the warm-up round
	stop  atomic.Bool

	slices     []slice // of the timed rounds
	allocBytes uint64  // allocated during the segment's rounds, by anyone
	vfsSpans   []span  // file-system spans of a traced durable segment, for the span file
}

// slice is what happened between two readings of a round's coordinator. As a
// reading, the three are running totals.
type slice struct {
	ns        int64 // length
	ops       int64 // operations the workers completed
	handedOut int64 // processor time the machine handed out, all processors together, ns
}

func (a slice) since(b slice) slice {
	return slice{a.ns - b.ns, a.ops - b.ops, a.handedOut - b.handedOut}
}

func (sl slice) rate() float64 { return float64(sl.ops) / float64(sl.ns) * 1e9 }

// withheld is the share of the machine's processor time that the hypervisor
// gave to another machine during the slice.
func (sl slice) withheld() float64 {
	return max(0, 1-float64(sl.handedOut)/float64(sl.ns*int64(runtime.NumCPU())))
}

// quiet returns the slices during which the hypervisor withheld a tenth of the
// machine at most: on the two-processor build host two of the kernel's 10 ms
// ticks in an untraced slice, about what the ticks resolve. On a host so busy
// that fewer than an eighth of the slices are that quiet, the quietest eighth
// stands in. A tenth and an eighth are what repeated best over thirty runs per
// workload (README, "What each reduction spreads by").
func quiet(slices []slice) []slice {
	q := append([]slice(nil), slices...)
	sort.SliceStable(q, func(i, j int) bool { return q[i].withheld() < q[j].withheld() })
	n := sort.Search(len(q), func(i int) bool { return q[i].withheld() > 0.1 })
	return q[:max(n, (len(q)+7)/8)]
}

// pad keeps what one worker writes on every operation off the cache lines of
// what another does: without it two workers' states, allocated one after the
// other, share a line where they meet.
type pad [64]byte

// counter is a worker's own tally for the workload's check (increments
// committed, operations acknowledged, cycles completed), alone on its line in
// a slice with one element per worker.
type counter struct {
	n int64
	_ [56]byte
}

func tally(cs []counter) []int64 {
	ns := make([]int64, len(cs))
	for i := range cs {
		ns[i] = cs[i].n
	}
	return ns
}

// worker is one closed-loop client. The workload supplies run (the Atomic
// entry point) and op (one operation); everything else is the harness's.
type worker struct {
	_   pad
	id  int
	seg *segment
	rng splitmix
	run func(func(stmapi.Txn) error) error
	op  func() error

	ops, failed int64
	done        atomic.Int64 // operations completed, as of the last timed one: what the coordinator reads
	lat         []int64      // latencies of the timed operations of the timed rounds, ns

	// Span state, used while tracing is set: the current operation is sampled
	// in a traced segment.
	tracing      bool
	rec          recorder
	phase        int32 // innermost open span; the timing wrappers hang theirs under it
	bodyIdx      int32
	attempt      int
	txStart      int64
	inner        func(stmapi.Txn) error
	tracedBodyFn func(stmapi.Txn) error

	// curTxn and waitSeq let a wrapper called with only a transaction ID or a
	// WAL sequence number find the worker it is running on.
	curTxn  atomic.Uint64
	waitSeq atomic.Uint64
	_       pad
}

// addWorker creates the segment's next worker. Worker i draws the same stream
// whatever the runtime, so every runtime of a workload sees the same accesses.
func (s *segment) addWorker(seed uint64, run func(func(stmapi.Txn) error) error) *worker {
	w := &worker{id: len(s.workers), seg: s, run: run, lat: make([]int64, 0, 1<<17)}
	w.rng = splitmix(seed ^ uint64(w.id+1)*0xd1342543de82ef95)
	w.rec.spans = make([]span, 0, maxKeptSpans+64)
	w.rec.self = make([]int64, 0, 64)
	w.tracedBodyFn = w.tracedBody
	s.workers = append(s.workers, w)
	return w
}

func (w *worker) do() {
	if err := w.op(); err != nil {
		w.failed++
	}
	w.ops++
}

// loop is one round of the worker's closed loop.
func (w *worker) loop() {
	seg := w.seg
	untilSample := 0
	var batch int64 // operations since the last clock reading
	for !seg.stop.Load() {
		batch++
		if untilSample > 0 {
			untilSample--
			w.do()
			continue
		}
		untilSample = seg.sampleEvery - 1
		t0 := now()
		if seg.traced {
			w.tracing = true
			w.rec.beginOp(w.ops, t0)
		}
		w.do()
		took := now() - t0
		if seg.traced {
			took -= w.rec.endOp(t0+took, seg.clockNs)
			w.tracing = false
		}
		// The coordinator sees operations in batches of sampleEvery: at most
		// that many are booked a slice late, out of the tens of thousands a
		// slice holds.
		w.done.Add(batch)
		batch = 0
		if seg.timed {
			w.lat = append(w.lat, took)
		}
	}
}

// atomic runs body as one transaction through the worker's runtime; on a
// sampled operation of a traced segment it also records the call's phases.
func (w *worker) atomic(body func(stmapi.Txn) error) error {
	if !w.tracing {
		return w.run(body)
	}
	w.inner, w.attempt = body, 0
	w.txStart = now()
	err := w.run(w.tracedBodyFn)
	w.rec.spans[w.phase].end = now() // the commit span endBody opened
	w.curTxn.Store(0)
	return err
}

func (w *worker) tracedBody(tx stmapi.Txn) error {
	t := now()
	r := &w.rec
	if w.attempt == 0 {
		r.add(kBegin, r.root, w.txStart, t)
	} else {
		// Re-entry: the last attempt aborted, and what looked like its commit
		// was the gap before this one.
		r.spans[w.bodyIdx].kind = kBodyAborted
		r.spans[w.phase].kind = kRetryGap
		r.spans[w.phase].end = t
	}
	w.attempt++
	w.bodyIdx = r.open(kBody, r.root, t)
	w.phase = w.bodyIdx
	w.curTxn.Store(tx.ID())
	defer w.endBody() // an abort unwinds through here too
	return w.inner(tx)
}

func (w *worker) endBody() {
	t := now()
	w.rec.spans[w.bodyIdx].end = t
	w.phase = w.rec.open(kCommit, w.rec.root, t)
}

// workerOf finds the worker whose sampled transaction has the given ID.
func (s *segment) workerOf(txn uint64) *worker {
	if txn == 0 {
		return nil
	}
	for _, w := range s.workers {
		if w.curTxn.Load() == txn {
			return w
		}
	}
	return nil
}

// runSegments runs the segments' rounds in rotation.
func runSegments(segs []*segment) {
	for r := 0; r < roundsPerSegment; r++ {
		for _, s := range segs {
			s.round(r)
		}
	}
}

// round releases the workers for one round, cuts it into slices and waits for
// the workers.
func (s *segment) round(r int) {
	var before, after runtime.MemStats
	runtime.GC() // no round inherits garbage, or a collection in progress
	runtime.ReadMemStats(&before)
	s.timed = r > 0
	s.stop.Store(false)
	var wg sync.WaitGroup
	for _, w := range s.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.loop()
		}()
	}
	sliceNs := int64(s.roundLen) / slicesPerRound
	prev := s.reading()
	start := prev.ns
	for i := int64(1); i <= slicesPerRound; i++ {
		// With every processor busy a wake-up runs up to a scheduler quantum
		// late; a slice is as long as the readings say, and one that would
		// come out under half its length runs into the next.
		wait := start + i*sliceNs - now()
		if wait < sliceNs/2 && i < slicesPerRound {
			continue
		}
		time.Sleep(time.Duration(wait))
		cur := s.reading()
		if s.timed {
			s.slices = append(s.slices, cur.since(prev))
		}
		prev = cur
	}
	s.stop.Store(true)
	wg.Wait()
	runtime.ReadMemStats(&after)
	s.allocBytes += after.TotalAlloc - before.TotalAlloc
}

func (s *segment) reading() slice {
	r := slice{ns: now(), handedOut: s.cpu.read()}
	for _, w := range s.workers {
		r.ops += w.done.Load()
	}
	return r
}

// segResult is what the harness measured on one segment.
type segResult struct {
	label       string
	ops, failed int64 // whole segment, warm-up included
	sampled     int64 // operations recorded as spans
	totals      spanTotals

	// Two rates. The gated one has to repeat on a host that does not hold
	// still; the traced run's own figures have to count slices that commit
	// nothing and to add up against spans, which are means.
	opsPerS     float64 // the median rate of the quiet timed slices
	meanOpsPerS float64 // operations completed in the timed slices over the slices' length

	p50Us      float64
	tailUs     float64
	tailPct    float64 // the percentile tailUs is: the highest with ten samples beyond it
	maxMs      float64
	stallShare float64 // share of the timed slices in which nothing committed
	allocPerOp float64
	heapLiveMB float64 // filled in by the caller, see heapLive
}

// result reduces what the segment's workers recorded.
func (s *segment) result() (segResult, error) {
	res := segResult{label: s.label}
	var lat []int64
	for _, w := range s.workers {
		res.ops += w.ops
		res.failed += w.failed
		res.sampled += w.rec.sampled
		res.totals.add(&w.rec.totals)
		lat = append(lat, w.lat...)
	}
	if len(lat) == 0 {
		return res, fmt.Errorf("%s: no operation completed in %d timed rounds of %v", s.label, roundsPerSegment-1, s.roundLen)
	}

	var timed slice
	var stalled int
	for _, sl := range s.slices {
		timed.ns, timed.ops = timed.ns+sl.ns, timed.ops+sl.ops
		if sl.ops == 0 {
			stalled++
		}
	}
	counted := s.slices
	if s.cpu != nil { // without the clock no slice is known to be disturbed
		counted = quiet(counted)
	}
	var rates []float64
	for _, sl := range counted {
		rates = append(rates, sl.rate())
	}
	res.opsPerS = median(rates)
	res.meanOpsPerS = float64(timed.ops) / float64(timed.ns) * 1e9
	res.stallShare = float64(stalled) / float64(len(s.slices))

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.p50Us = float64(lat[len(lat)/2]) / 1e3
	res.maxMs = float64(lat[len(lat)-1]) / 1e6
	res.tailUs, res.tailPct = res.maxMs*1e3, 100
	for _, p := range []float64{0.9999, 0.999, 0.99, 0.9} {
		if float64(len(lat))*(1-p) >= 10 {
			res.tailUs, res.tailPct = float64(lat[int(float64(len(lat))*p)])/1e3, p*100
			break
		}
	}
	res.allocPerOp = float64(s.allocBytes) / float64(res.ops)
	return res, nil
}

// heapLive returns how many MB of live heap drop lets go of: the heap after a
// collection, before and after drop clears the last references to something.
func heapLive(drop func()) float64 {
	live := func() float64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc) / (1 << 20)
	}
	before := live()
	drop()
	return before - live()
}

// timeSetup sets a segment's system under test up reps times and returns the
// last one built with the median set-up time in seconds. Every set-up starts
// on a collected heap and runs with the collector off: whether a collection
// ran beside a build decided its time (eager's build for shared_hot read 15 to
// 80 us from one set-up to the next, and 9 to 11 us without). batch builds are
// timed as one set-up and the time divided, for a build so short that the
// clock and a cold allocator are a good part of it. discard releases a build
// that will not be used; nil, which batch > 1 takes for granted, when the
// garbage collector is enough.
func timeSetup[T any](reps, batch int, build func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		runtime.GC()
		start := now()
		for j := 0; j < batch; j++ {
			var err error
			if last, err = build(); err != nil {
				return last, 0, err
			}
		}
		times = append(times, float64(now()-start)/1e9/float64(batch))
	}
	return last, median(times), nil
}

// median returns the middle of vs (the mean of the middle two for an even
// count) without reordering it.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, and 0 when the layer that would fill b did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
