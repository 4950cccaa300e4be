// Package causal is the STM's flight recorder: it consumes the
// trace.Tracer event stream (as a trace.Sink, or offline via Build) and
// reconstructs the *causal structure* the flat stream only implies —
// per-transaction attempt spans linked by typed edges recording which
// transaction waited on, aborted, doomed, stole from, or invalidated
// which, over which object.
//
// The paper's isolation argument is entirely about ordering between
// conflicting accesses; the recorder makes that ordering a first-class
// artifact. Attempts and edges live in fixed-size rings (old entries are
// overwritten, never blocking the recorder), and per-transaction live
// state is capped with eviction, so memory stays bounded no matter how
// long the traced run is.
//
// Three consumers sit on top:
//
//   - exporters (perfetto.go, dot.go) render the DAG as a Chrome
//     trace-event / Perfetto timeline with flow arrows for causal edges,
//     or as a Graphviz conflict graph;
//   - the starvation analyzer (starve.go) walks abort chains for longest
//     victim chains, max consecutive aborts, wasted work, and per-object
//     dominance;
//   - Live() summarizes the in-flight picture (active waits, longest
//     current wait chain, wasted-work ratio) for /metrics and stmtop.
package causal

import (
	"sort"
	"sync"

	"repro/internal/trace"
)

// EdgeKind types a causal edge.
type EdgeKind uint8

// Edge kinds. From is always the affected transaction's attempt (the
// waiter or victim); To is the cause (the owner, killer, or invalidating
// writer), and may be unknown (zero AttemptRef).
const (
	WaitsFor      EdgeKind = iota // From waits on Obj held by To
	AbortedBy                     // From's attempt died; To held or took Obj
	DoomedBy                      // To's contention policy doomed From over Obj
	StolenFrom                    // To (a reaper or waiter) reclaimed dead From's records
	InvalidatedBy                 // From failed commit-clock validation on Obj last written by To
	numEdgeKinds
)

var edgeKindNames = [numEdgeKinds]string{
	"waits-for", "aborted-by", "doomed-by", "stolen-from", "invalidated-by",
}

// String returns the edge kind's wire name.
func (k EdgeKind) String() string {
	if int(k) < len(edgeKindNames) {
		return edgeKindNames[k]
	}
	return "unknown"
}

// AttemptRef names one attempt of one transaction. The zero value means
// "unknown attempt" (an edge endpoint the recorder could not resolve,
// e.g. because the peer's events were evicted).
type AttemptRef struct {
	Txn uint64 `json:"txn"`
	N   int    `json:"n"` // attempt number within the transaction, 0-based
}

// Known reports whether the ref names a real attempt.
func (r AttemptRef) Known() bool { return r.Txn != 0 }

// Outcome is how an attempt ended.
type Outcome uint8

// Attempt outcomes.
const (
	Running Outcome = iota // still open when the graph was captured
	Committed
	Aborted
)

var outcomeNames = [...]string{"running", "committed", "aborted"}

// String returns the outcome's wire name.
func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "unknown"
}

// Attempt is one attempt span of one transaction: begin (or first
// observed event) to commit/abort.
type Attempt struct {
	Txn      uint64  `json:"txn"`
	N        int     `json:"n"`
	StartSeq uint64  `json:"start_seq"`
	EndSeq   uint64  `json:"end_seq,omitempty"` // 0 while running
	StartNS  int64   `json:"start_ns"`
	EndNS    int64   `json:"end_ns,omitempty"`
	Outcome  Outcome `json:"outcome"`
	BlameObj uint64  `json:"blame_obj,omitempty"` // aborted: the blamed object
}

// Ref returns the attempt's reference.
func (a Attempt) Ref() AttemptRef { return AttemptRef{Txn: a.Txn, N: a.N} }

// Edge is one typed causal edge between attempts.
type Edge struct {
	Kind EdgeKind   `json:"kind"`
	From AttemptRef `json:"from"`
	To   AttemptRef `json:"to,omitempty"` // zero = cause unknown
	Obj  uint64     `json:"obj,omitempty"`
	Seq  uint64     `json:"seq"`
	NS   int64      `json:"ns"`
}

// Config bounds the recorder's memory. Zero fields take defaults.
type Config struct {
	MaxAttempts int // closed-attempt ring capacity (default 8192)
	MaxEdges    int // edge ring capacity (default 16384)
	MaxLive     int // live per-transaction states (default 1024)
	MaxObjects  int // last-writer table entries (default 4096)
}

// Defaults for Config's zero fields.
const (
	DefaultMaxAttempts = 8192
	DefaultMaxEdges    = 16384
	DefaultMaxLive     = 1024
	DefaultMaxObjects  = 4096
)

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.MaxEdges <= 0 {
		c.MaxEdges = DefaultMaxEdges
	}
	if c.MaxLive <= 0 {
		c.MaxLive = DefaultMaxLive
	}
	if c.MaxObjects <= 0 {
		c.MaxObjects = DefaultMaxObjects
	}
	return c
}

// txnState is the recorder's per-live-transaction working state. One
// transaction ID spans all retry attempts of one atomic block (IDs are
// assigned per top-level Atomic), so consecutive-abort counting is per ID.
type txnState struct {
	txn     uint64
	begins  int // attempts started (next attempt number)
	n       int // current attempt number
	open    bool
	start   trace.Event // the begin (or first observed) event of the open attempt
	lastSeq uint64      // most recent activity, for LRU-ish eviction

	consecAborts int

	// active wait (most recent conflict probe without progress since)
	waiting   bool
	waitObj   uint64
	waitOwner uint64 // owning txn ID, 0 = anonymous/unknown

	// pending abort cause, set by doom/self-abort/validation before EvAbort
	causeSet  bool
	causeKind EdgeKind
	causeObj  uint64
	causeTo   AttemptRef

	// objects written or acquired this attempt, for the last-writer table
	touched []uint64
}

// maxTouched caps the per-attempt written-object list; beyond it the
// last-writer table just misses (an attribution, not a correctness, loss).
const maxTouched = 32

// Recorder consumes trace events and maintains the bounded conflict DAG.
// It implements trace.Sink; all methods are safe for concurrent use.
//
// A single mutex serializes Observe. That is deliberate: the recorder is
// an *enabled-tracing* feature, events arrive already serialized by the
// tracer's global Seq stamp, and a lock-free design would buy throughput
// the traced path cannot use while costing ordering guarantees the DAG
// depends on.
type Recorder struct {
	mu  sync.Mutex
	cfg Config

	attempts   []Attempt // ring of closed attempts
	attTotal   uint64    // attempts ever closed
	edges      []Edge    // ring of edges
	edgeTotal  uint64    // edges ever emitted
	byEdgeKind [numEdgeKinds]int64

	live       map[uint64]*txnState
	lastWriter map[uint64]AttemptRef // object -> last committed writer attempt

	// aggregates (whole run, unaffected by ring eviction)
	commits, aborts int64
	committedNS     int64
	abortedNS       int64
	extensions      int64
	maxConsecAborts int
	maxConsecTxn    uint64
	evictedLive     int64
	evictedWriters  int64
	observedEvents  int64
}

// NewRecorder returns a Recorder with the given bounds.
func NewRecorder(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:        cfg,
		attempts:   make([]Attempt, 0, cfg.MaxAttempts),
		edges:      make([]Edge, 0, cfg.MaxEdges),
		live:       make(map[uint64]*txnState),
		lastWriter: make(map[uint64]AttemptRef),
	}
}

// Observe consumes one trace event (trace.Sink).
func (r *Recorder) Observe(ev trace.Event) {
	r.mu.Lock()
	r.observe(ev)
	r.mu.Unlock()
}

func (r *Recorder) observe(ev trace.Event) {
	r.observedEvents++
	switch ev.Kind {
	case trace.EvBegin:
		s := r.state(ev.Txn, ev)
		if s.open {
			// A begin with the previous attempt still open means we missed
			// its terminal event (ring drop); close it as aborted.
			r.closeAttempt(s, ev.Seq, ev.Unix, Aborted, 0)
		}
		r.openAttempt(s, ev)

	case trace.EvConflict:
		s := r.ensureOpen(ev)
		owner := ev.Ver
		if !s.waiting || s.waitObj != ev.Obj || s.waitOwner != owner {
			s.waiting, s.waitObj, s.waitOwner = true, ev.Obj, owner
			r.addEdge(Edge{
				Kind: WaitsFor, From: s.ref(), To: r.refOf(owner),
				Obj: ev.Obj, Seq: ev.Seq, NS: ev.Unix,
			})
		}
		s.lastSeq = ev.Seq

	case trace.EvRead, trace.EvWrite, trace.EvLockAcquire:
		s := r.ensureOpen(ev)
		s.waiting = false // progress: the wait resolved
		if ev.Kind != trace.EvRead && ev.Obj != 0 && len(s.touched) < maxTouched {
			s.touched = append(s.touched, ev.Obj)
		}
		s.lastSeq = ev.Seq

	case trace.EvSelfAbort:
		// The contention policy decided SelfAbort over ev.Obj; the owner we
		// were waiting on (if it is the same object) is the cause.
		s := r.ensureOpen(ev)
		s.causeSet, s.causeKind, s.causeObj = true, AbortedBy, ev.Obj
		if s.waiting && s.waitObj == ev.Obj {
			s.causeTo = r.refOf(s.waitOwner)
		} else {
			s.causeTo = AttemptRef{}
		}
		s.lastSeq = ev.Seq

	case trace.EvDoom:
		// ev.Txn doomed victim ev.Ver over ev.Obj.
		killer := r.ensureOpen(ev)
		killer.lastSeq = ev.Seq
		if victim, ok := r.live[ev.Ver]; ok && victim.open {
			r.addEdge(Edge{
				Kind: DoomedBy, From: victim.ref(), To: killer.ref(),
				Obj: ev.Obj, Seq: ev.Seq, NS: ev.Unix,
			})
			victim.causeSet, victim.causeKind = true, AbortedBy
			victim.causeObj, victim.causeTo = ev.Obj, killer.ref()
		}

	case trace.EvValidation:
		// Commit-clock validation failed on ev.Obj: the cause is whoever
		// committed a write to it last (if the table still knows).
		s := r.ensureOpen(ev)
		s.causeSet, s.causeKind, s.causeObj = true, InvalidatedBy, ev.Obj
		s.causeTo = r.lastWriter[ev.Obj]
		s.lastSeq = ev.Seq

	case trace.EvExtend:
		r.extensions++
		s := r.ensureOpen(ev)
		s.lastSeq = ev.Seq

	case trace.EvSteal:
		// ev.Txn (0 = a ReapDead sweep) reclaimed dead transaction ev.Ver's
		// records while waiting on ev.Obj (0 for a sweep). The victim is
		// gone: close its attempt and free its state.
		var to AttemptRef
		if ev.Txn != 0 {
			to = r.refOf(ev.Txn)
		}
		from := AttemptRef{Txn: ev.Ver}
		if victim, ok := r.live[ev.Ver]; ok {
			from = victim.ref()
			if victim.open {
				r.closeAttempt(victim, ev.Seq, ev.Unix, Aborted, ev.Obj)
			}
			delete(r.live, ev.Ver)
		}
		r.addEdge(Edge{Kind: StolenFrom, From: from, To: to, Obj: ev.Obj, Seq: ev.Seq, NS: ev.Unix})

	case trace.EvAbort:
		s := r.ensureOpen(ev)
		if s.causeSet {
			r.addEdge(Edge{
				Kind: s.causeKind, From: s.ref(), To: s.causeTo,
				Obj: s.causeObj, Seq: ev.Seq, NS: ev.Unix,
			})
		} else if ev.Obj != 0 {
			// No recorded cause but a blamed object: if we were waiting on
			// that object the owner is the killer (covers the SelfAbortAfter
			// threshold path, which restarts without a policy decision).
			to := AttemptRef{}
			if s.waiting && s.waitObj == ev.Obj {
				to = r.refOf(s.waitOwner)
			}
			r.addEdge(Edge{Kind: AbortedBy, From: s.ref(), To: to, Obj: ev.Obj, Seq: ev.Seq, NS: ev.Unix})
		}
		r.closeAttempt(s, ev.Seq, ev.Unix, Aborted, ev.Obj)

	case trace.EvCommit:
		s := r.ensureOpen(ev)
		for _, obj := range s.touched {
			r.setLastWriter(obj, s.ref())
		}
		r.closeAttempt(s, ev.Seq, ev.Unix, Committed, 0)
		delete(r.live, ev.Txn) // the transaction ID is never reused
	}
}

// state returns (creating if needed) the live state for txn.
func (r *Recorder) state(txn uint64, ev trace.Event) *txnState {
	s, ok := r.live[txn]
	if !ok {
		if len(r.live) >= r.cfg.MaxLive {
			r.evictColdest()
		}
		s = &txnState{txn: txn, lastSeq: ev.Seq}
		r.live[txn] = s
	}
	return s
}

// ensureOpen returns txn's state with an open attempt, synthesizing one if
// the begin event was never observed (offline replay of a clipped ring).
func (r *Recorder) ensureOpen(ev trace.Event) *txnState {
	s := r.state(ev.Txn, ev)
	if !s.open {
		r.openAttempt(s, ev)
	}
	return s
}

func (r *Recorder) openAttempt(s *txnState, ev trace.Event) {
	s.n = s.begins
	s.begins++
	s.open = true
	s.start = ev
	s.lastSeq = ev.Seq
	s.waiting = false
	s.causeSet = false
	s.touched = s.touched[:0]
}

func (r *Recorder) closeAttempt(s *txnState, seq uint64, ns int64, out Outcome, blame uint64) {
	a := Attempt{
		Txn: s.txn, N: s.n,
		StartSeq: s.start.Seq, EndSeq: seq,
		StartNS: s.start.Unix, EndNS: ns,
		Outcome: out, BlameObj: blame,
	}
	dur := ns - s.start.Unix
	if dur < 0 {
		dur = 0
	}
	switch out {
	case Committed:
		r.commits++
		r.committedNS += dur
		s.consecAborts = 0
	case Aborted:
		r.aborts++
		r.abortedNS += dur
		s.consecAborts++
		if s.consecAborts > r.maxConsecAborts {
			r.maxConsecAborts = s.consecAborts
			r.maxConsecTxn = s.txn
		}
	}
	s.open = false
	s.waiting = false
	s.causeSet = false
	if len(r.attempts) < cap(r.attempts) {
		r.attempts = append(r.attempts, a)
	} else {
		r.attempts[r.attTotal%uint64(cap(r.attempts))] = a
	}
	r.attTotal++
}

func (r *Recorder) addEdge(e Edge) {
	r.byEdgeKind[e.Kind]++
	if len(r.edges) < cap(r.edges) {
		r.edges = append(r.edges, e)
	} else {
		r.edges[r.edgeTotal%uint64(cap(r.edges))] = e
	}
	r.edgeTotal++
}

// refOf resolves a transaction ID to its current attempt, if live.
func (r *Recorder) refOf(txn uint64) AttemptRef {
	if txn == 0 {
		return AttemptRef{}
	}
	if s, ok := r.live[txn]; ok && s.open {
		return s.ref()
	}
	// Not live: the ref still names the transaction, attempt unknown (0 is
	// the best guess — most transactions commit on an early attempt).
	return AttemptRef{Txn: txn}
}

func (s *txnState) ref() AttemptRef { return AttemptRef{Txn: s.txn, N: s.n} }

// evictColdest drops the live entry with the oldest activity. O(n) scan,
// but eviction only fires with MaxLive simultaneously-tracked transactions
// — far past any sane worker count — so the cost is irrelevant.
func (r *Recorder) evictColdest() {
	var coldest *txnState
	for _, s := range r.live {
		if coldest == nil || s.lastSeq < coldest.lastSeq {
			coldest = s
		}
	}
	if coldest == nil {
		return
	}
	if coldest.open {
		r.closeAttempt(coldest, coldest.lastSeq, coldest.start.Unix, Aborted, 0)
	}
	delete(r.live, coldest.txn)
	r.evictedLive++
}

func (r *Recorder) setLastWriter(obj uint64, ref AttemptRef) {
	if _, ok := r.lastWriter[obj]; !ok && len(r.lastWriter) >= r.cfg.MaxObjects {
		// Drop an arbitrary entry: the table is an attribution cache, not
		// ground truth, and map iteration order is as good an eviction
		// policy as any at this size.
		for k := range r.lastWriter {
			delete(r.lastWriter, k)
			r.evictedWriters++
			break
		}
	}
	r.lastWriter[obj] = ref
}

// Graph is a point-in-time copy of the conflict DAG: attempts ordered by
// StartSeq, edges by Seq. Dropped* report ring evictions — consumers must
// treat the graph as a window, not the whole run, when they are nonzero.
type Graph struct {
	Attempts        []Attempt        `json:"attempts"`
	Edges           []Edge           `json:"edges"`
	DroppedAttempts uint64           `json:"dropped_attempts,omitempty"`
	DroppedEdges    uint64           `json:"dropped_edges,omitempty"`
	EdgesByKind     map[string]int64 `json:"edges_by_kind,omitempty"` // whole-run counts, unaffected by eviction
}

// Graph snapshots the recorder's DAG, including still-open attempts
// (Outcome Running).
func (r *Recorder) Graph() *Graph {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := &Graph{
		Attempts:    make([]Attempt, 0, len(r.attempts)+len(r.live)),
		Edges:       append([]Edge(nil), r.edges...),
		EdgesByKind: make(map[string]int64, int(numEdgeKinds)),
	}
	g.Attempts = append(g.Attempts, r.attempts...)
	for _, s := range r.live {
		if s.open {
			g.Attempts = append(g.Attempts, Attempt{
				Txn: s.txn, N: s.n,
				StartSeq: s.start.Seq, StartNS: s.start.Unix,
				Outcome: Running,
			})
		}
	}
	if n := uint64(cap(r.attempts)); r.attTotal > n {
		g.DroppedAttempts = r.attTotal - n
	}
	if n := uint64(cap(r.edges)); r.edgeTotal > n {
		g.DroppedEdges = r.edgeTotal - n
	}
	for k := EdgeKind(0); k < numEdgeKinds; k++ {
		if n := r.byEdgeKind[k]; n != 0 {
			g.EdgesByKind[k.String()] = n
		}
	}
	sortGraph(g)
	return g
}

// Build replays an event stream (e.g. a trace dump) through a fresh
// recorder and returns the resulting graph. Zero cfg fields are sized to
// retain everything the stream can produce, so offline analysis never
// evicts.
func Build(events []trace.Event, cfg Config) *Graph {
	n := len(events) + 1
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = n
	}
	if cfg.MaxEdges <= 0 {
		cfg.MaxEdges = n
	}
	if cfg.MaxLive <= 0 {
		cfg.MaxLive = n
	}
	if cfg.MaxObjects <= 0 {
		cfg.MaxObjects = n
	}
	r := NewRecorder(cfg)
	for _, ev := range events {
		r.observe(ev) // single goroutine: skip the lock
	}
	return r.Graph()
}

func sortGraph(g *Graph) {
	sort.Slice(g.Attempts, func(i, j int) bool {
		a, b := g.Attempts[i], g.Attempts[j]
		if a.StartSeq != b.StartSeq {
			return a.StartSeq < b.StartSeq
		}
		if a.Txn != b.Txn {
			return a.Txn < b.Txn
		}
		return a.N < b.N
	})
	sort.Slice(g.Edges, func(i, j int) bool { return g.Edges[i].Seq < g.Edges[j].Seq })
}

// LiveSnapshot is the recorder's in-flight summary, rendered as the
// `causal` line in /metrics and stmtop.
type LiveSnapshot struct {
	ActiveWaits          int     `json:"active_waits"`      // live transactions currently blocked on an owner
	LongestChain         int     `json:"longest_chain"`     // deepest current waits-for chain
	WastedWorkPct        float64 `json:"wasted_work_pct"`   // aborted ns / (aborted+committed) ns
	MaxConsecutiveAborts int     `json:"max_consec_aborts"` // worst run of aborts by one transaction
	MaxConsecutiveTxn    uint64  `json:"max_consec_txn,omitempty"`
	Commits              int64   `json:"commits"`
	Aborts               int64   `json:"aborts"`
	Attempts             uint64  `json:"attempts"`
	Edges                uint64  `json:"edges"`
	Extensions           int64   `json:"extensions"` // snapshot-extension walks observed
	EvictedLive          int64   `json:"evicted_live,omitempty"`
	EvictedWriters       int64   `json:"evicted_writers,omitempty"`
}

// Live summarizes the current causal picture.
func (r *Recorder) Live() LiveSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	ls := LiveSnapshot{
		MaxConsecutiveAborts: r.maxConsecAborts,
		MaxConsecutiveTxn:    r.maxConsecTxn,
		Commits:              r.commits,
		Aborts:               r.aborts,
		Attempts:             r.attTotal,
		Edges:                r.edgeTotal,
		Extensions:           r.extensions,
		EvictedLive:          r.evictedLive,
		EvictedWriters:       r.evictedWriters,
	}
	if total := r.committedNS + r.abortedNS; total > 0 {
		ls.WastedWorkPct = 100 * float64(r.abortedNS) / float64(total)
	}
	// Walk current waits-for chains: follow waitOwner links through live
	// waiting transactions. Depth is bounded by len(live); a cycle (a
	// deadlock the policies should be breaking) just stops at the repeat.
	for _, s := range r.live {
		if !s.open || !s.waiting {
			continue
		}
		ls.ActiveWaits++
		depth := 1
		seen := map[uint64]bool{s.txn: true}
		for cur := s; ; {
			next, ok := r.live[cur.waitOwner]
			if !ok || !next.open || !next.waiting || seen[next.txn] {
				break
			}
			seen[next.txn] = true
			depth++
			cur = next
		}
		if depth > ls.LongestChain {
			ls.LongestChain = depth
		}
	}
	return ls
}
