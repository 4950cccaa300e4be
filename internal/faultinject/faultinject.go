// Package faultinject provides deterministic, seedable fault injection for
// the STM runtimes. An Injector is installed on a runtime the same way a
// tracer is — an atomic pointer sampled once per top-level atomic block —
// so with no injector installed every injection point costs one predictable
// nil check and nothing else.
//
// Injection points sit at the stages of the commit protocol where an abort
// is hardest to get right: around record acquisition, once a commit holds
// its write set, and inside the commit window before records are released.
// Three actions are supported in memory:
//
//	Delay   sleep at the point, widening race windows that are normally
//	        nanoseconds long (the litmus programs' best friend)
//	Abort   doom the attempt: the runtime runs its ordinary abort path
//	        (undo-log replay / buffer discard, record release) and retries
//	Orphan  simulate the thread dying with NO cleanup: the runtime marks the
//	        descriptor dead and panics with OrphanError, leaving every
//	        acquired record held and the undo log / write buffer in place.
//	        The transaction's records stay Exclusive until a waiter steals
//	        them inline or a sweep (stmapi.Runtime.ReapDead) reclaims them —
//	        the failure mode the reclaimers exist to fix
//
// Every in-memory point is asked through txn.Txn.Fault, which maps these
// actions onto the protocol once. Kill, the fourth action, ends the process
// inside Fire; the durability harness arms it at the WAL points.
//
// Determinism: every decision is a pure function of (Seed, point, arrival
// index at that point). Two runs with the same seed and the same per-point
// arrival interleavings fire identically; a single-threaded test fires
// reproducibly by construction. Rules select arrivals either periodically
// (Every) or by seeded hash (Rate), never from global RNG state.
package faultinject

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// Point is an injection site in a runtime's transaction lifecycle.
type Point uint8

// Injection points. The in-memory ones (Points) sit in the transaction
// kernel's one commit protocol (internal/txn, commit.go), each at one place
// in it, and every runtime reaches each; internal/txn's
// TestEveryFaultPointFires pins how often.
const (
	// PreAcquire fires before each CAS that takes a write-set record to
	// Exclusive, at the acquisition the versioning makes: at the write
	// under eager versioning, in LockWriteSet under deferred update.
	PreAcquire Point = iota
	// PostAcquire fires immediately after such an acquisition succeeds.
	PostAcquire
	// PreValidate fires once a commit holds its write set (after
	// LockWriteSet), before Validate and the commit point. A multi-version
	// commit validates no reads there (first-committer-wins was checked
	// while locking), and its read-only commits never reach the point.
	PreValidate
	// PostCommitPoint fires past the commit point and the write-back, with
	// the records still held and the redo record not yet appended: the
	// paper's Figure 4 window.
	PostCommitPoint
	// PreRelease fires right after PostCommitPoint, before the redo append
	// and the release.
	PreRelease
	// WALAppend fires before a commit's redo record is appended to the
	// write-ahead log (internal/durable), while the commit still holds its
	// records.
	WALAppend
	// WALFsync fires before the group committer fsyncs a WAL batch —
	// acked commits in the batch are not yet durable.
	WALFsync
	// WALRename fires before a snapshot (or other durable artifact) is
	// renamed into place — the rename-durability window.
	WALRename
	// NumPoints is the number of injection points.
	NumPoints
)

// Points lists the commit-protocol injection points in protocol order, for
// callers arming a rule at each in-memory commit stage. The durability
// points live in WALPoints.
var Points = []Point{PreAcquire, PostAcquire, PreValidate, PostCommitPoint, PreRelease}

// WALPoints lists the durability-layer injection points (internal/durable
// fires them; the runtimes never do).
var WALPoints = []Point{WALAppend, WALFsync, WALRename}

var pointNames = [NumPoints]string{
	"pre-acquire", "post-acquire", "pre-validate", "post-commit-point", "pre-release",
	"wal-append", "wal-fsync", "wal-rename",
}

func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("Point(%d)", uint8(p))
}

// Action is what an armed rule does when it fires.
type Action uint8

// Actions. None means the point passes through untouched.
const (
	None Action = iota
	Delay
	Abort
	Orphan

	// Kill terminates the whole process at the point — no cleanup, no
	// panic, no deferred functions: the real SIGKILL the durability
	// harness's whitebox killpoints are built on. Fire performs the kill
	// itself (via KillProcess), so the action never returns to the caller.
	Kill

	// numActions sizes the per-action counters.
	numActions
)

func (a Action) String() string {
	switch a {
	case None:
		return "none"
	case Delay:
		return "delay"
	case Abort:
		return "abort"
	case Orphan:
		return "orphan"
	case Kill:
		return "kill"
	default:
		return fmt.Sprintf("Action(%d)", uint8(a))
	}
}

// PointByName resolves a point name as printed by Point.String ("pre-acquire",
// "wal-fsync", ...). The bool reports whether the name is known.
func PointByName(name string) (Point, bool) {
	for p := Point(0); p < NumPoints; p++ {
		if pointNames[p] == name {
			return p, true
		}
	}
	return 0, false
}

// KillProcess is how a Kill action terminates the process. It sends the
// process SIGKILL (so no deferred cleanup, no exit handlers — the honest
// model of a machine losing power as far as the Go runtime can fake it) and
// falls back to an immediate exit if the signal cannot be delivered. Tests
// that count kill firings without dying may swap it out.
var KillProcess = func() {
	if p, err := os.FindProcess(os.Getpid()); err == nil {
		_ = p.Kill()
		time.Sleep(time.Second) // the signal is asynchronous; never resume
	}
	os.Exit(137)
}

// OrphanError is the panic value raised at an Orphan injection. Nothing is
// cleaned up first: the descriptor is marked dead and abandoned with its
// records still Exclusive. Waiters stay blocked until the reaper (or a
// stealing waiter) reclaims them.
type OrphanError struct {
	Point Point
	Txn   uint64
}

func (o OrphanError) Error() string {
	return fmt.Sprintf("faultinject: goroutine orphaned at %v (txn %d, records left held)", o.Point, o.Txn)
}

// Rule arms one injection point. A rule fires on an arrival if the
// periodic selector matches (Every) or the seeded hash selects it (Rate);
// with both zero the rule fires on every arrival.
type Rule struct {
	Point  Point
	Action Action

	// Every fires on arrivals 0, Every, 2·Every, ... at the point
	// (1 = every arrival). Zero defers to Rate.
	Every uint64

	// Rate fires a seeded-pseudorandom fraction of arrivals, in
	// 1/1024ths (Rate=512 ≈ half). Ignored when Every is set.
	Rate uint64

	// Sleep is the Delay action's duration; zero means 50µs.
	Sleep time.Duration
}

// DefaultSleep is the Delay action's duration when Rule.Sleep is zero.
const DefaultSleep = 50 * time.Microsecond

// Injector evaluates rules at injection points. Safe for concurrent use;
// construct with New.
type Injector struct {
	seed  uint64
	rules [NumPoints][]Rule

	arrivals [NumPoints]atomic.Uint64 // arrival index per point
	fired    [NumPoints][numActions]atomic.Int64
}

// New builds an Injector from a seed and rules. Rules on the same point
// are evaluated in order; the first that fires wins the arrival.
func New(seed uint64, rules ...Rule) *Injector {
	in := &Injector{seed: seed}
	for _, r := range rules {
		if r.Point >= NumPoints {
			panic(fmt.Sprintf("faultinject: invalid point %d", r.Point))
		}
		in.rules[r.Point] = append(in.rules[r.Point], r)
	}
	return in
}

// splitmix64 is the SplitMix64 output function: a bijective mix whose
// low bits are uniform, keyed here by seed and arrival index.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Fire evaluates the point's rules against this arrival and performs any
// Delay (and Kill) itself; the caller maps Abort and Orphan onto the
// protocol (txn.Txn.Fault for the in-memory points).
// With no rule armed on the point it costs one atomic add.
func (in *Injector) Fire(p Point, txID uint64) Action {
	n := in.arrivals[p].Add(1) - 1
	rules := in.rules[p]
	if len(rules) == 0 {
		return None
	}
	for _, r := range rules {
		fire := false
		switch {
		case r.Every > 0:
			fire = n%r.Every == 0
		case r.Rate > 0:
			fire = splitmix64(in.seed^uint64(p)<<32^n)&1023 < r.Rate
		default:
			fire = true
		}
		if !fire {
			continue
		}
		in.fired[p][r.Action].Add(1)
		if r.Action == Kill {
			KillProcess()
			return Kill // unreachable unless KillProcess is stubbed out
		}
		if r.Action == Delay {
			d := r.Sleep
			if d <= 0 {
				d = DefaultSleep
			}
			time.Sleep(d)
			return Delay
		}
		return r.Action
	}
	return None
}

// Arrivals returns how many times point p has been reached.
func (in *Injector) Arrivals(p Point) uint64 { return in.arrivals[p].Load() }

// Fired returns how many times action a has fired at point p.
func (in *Injector) Fired(p Point, a Action) int64 { return in.fired[p][a].Load() }

// TotalFired sums every non-None firing across all points.
func (in *Injector) TotalFired() int64 {
	var t int64
	for p := Point(0); p < NumPoints; p++ {
		for a := Delay; a < numActions; a++ {
			t += in.fired[p][a].Load()
		}
	}
	return t
}
