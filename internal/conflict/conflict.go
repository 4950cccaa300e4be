// Package conflict implements the conflict manager invoked by isolation
// barriers and transactional open-for-read/write operations when multiple
// threads contend for the same transaction record.
//
// Per Section 3.2, the default manager "backs off and returns so that the
// barriers retry"; alternatively conflicts "could signal a race by throwing
// an exception or breaking to the debugger", which is how isolation
// barriers can aid in debugging concurrent programs. Both are here: Backoff,
// the default, and Panic, which surfaces the race. ByName also builds the
// two arbitrating policies a transaction can resolve a conflict with,
// Timestamp (older wins) and Karma (accumulated work wins).
package conflict

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// Kind classifies the access that hit a conflict.
type Kind uint8

// Conflict kinds.
const (
	NonTxnRead  Kind = iota // non-transactional read barrier
	NonTxnWrite             // non-transactional write barrier
	TxnRead                 // transactional open-for-read
	TxnWrite                // transactional open-for-write
)

func (k Kind) String() string {
	switch k {
	case NonTxnRead:
		return "non-txn-read"
	case NonTxnWrite:
		return "non-txn-write"
	case TxnRead:
		return "txn-read"
	case TxnWrite:
		return "txn-write"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Info describes one conflict event passed to a Handler or Policy.
//
// The Self/Owner fields exist for policies that arbitrate between the two
// transactions rather than blindly backing off. A transaction's ID is
// assigned once per top-level Atomic (it survives internal retries) and
// comes from its descriptor's block of 64 consecutive IDs, blocks being
// taken from a runtime-wide counter in order, so IDs double as age stamps:
// a smaller ID is an older transaction, up to the block. A descriptor still
// spending a block taken earlier hands out IDs below those of blocks taken
// later, so a retrying transaction is outranked by at most 63 newcomers per
// other descriptor, and after those it is older than every newcomer. Zero
// means "unknown" — a conflict raised by a non-transactional barrier has no
// Self, and a record owned by an anonymous (non-transactional) writer has
// no Owner.
type Info struct {
	Kind    Kind
	Attempt int    // 0-based retry attempt for this access
	Record  uint64 // transaction-record word observed

	Self     uint64 // contender's transaction ID (age stamp); 0 outside a transaction
	SelfPrio int64  // contender's accumulated priority (Karma policies)

	Owner       uint64 // owning transaction's ID, if Record is transactionally owned
	OwnerPrio   int64  // owner's accumulated priority, valid only if OwnerActive
	OwnerActive bool   // owner's descriptor was found live in the registry

	// OwnerIrrevocable reports that the owner holds the runtime's
	// irrevocable token. Arbitrating policies must yield (Wait) rather than
	// decide AbortOther: an irrevocable transaction cannot be doomed (the
	// runtime would refuse anyway), so an AbortOther decision against it
	// would spin issuing dooms that never land.
	OwnerIrrevocable bool
}

// Handler decides what to do about a conflict. Returning normally means
// "retry the access"; a handler may also panic to surface the race.
type Handler interface {
	HandleConflict(Info)
}

// Backoff is the default handler and policy: it waits
// WaitAttempt(info.Attempt) and retries. It keeps no state.
type Backoff struct{}

// DefaultMaxSleep caps the duration WaitAttempt asks time.Sleep for. It is
// a request, not what a wait costs: the timer rounds every sub-millisecond
// sleep up to about a millisecond (BenchmarkWaitAttempt).
const DefaultMaxSleep = 100 * time.Microsecond

// HandleConflict implements Handler with bounded exponential backoff.
func (*Backoff) HandleConflict(info Info) { WaitAttempt(info.Attempt) }

// WaitAttempt performs the backoff for the given 0-based attempt number:
// spinning 1 to 8 iterations for attempts 0-3, a scheduler yield for 4-9,
// then a sleep asking for 1 µs doubling up to DefaultMaxSleep. The sleep
// stage is flat in practice: on Linux (2-CPU Xeon VM, go1.24) a 1 µs sleep
// returns after 0.4-0.6 ms and every request from 16 µs to 100 µs after
// about 1.1 ms, so one sleeping waiter is parked for a millisecond whatever
// the attempt. That is what serializes the two workers of a contended
// workload (DESIGN.md §8), and replacing it with a yield loop to the
// requested deadline was measured and rejected there.
func WaitAttempt(attempt int) {
	switch {
	case attempt < 4:
		spin(1 << uint(attempt))
	case attempt < 10:
		runtime.Gosched()
	default:
		shift := min(attempt-10, 12)
		time.Sleep(min(time.Microsecond<<uint(shift), DefaultMaxSleep))
	}
}

var spinSink atomic.Int64

// spin burns roughly n iterations of local work. The loop body is plain
// arithmetic with a single atomic store of the result at the end: spinning
// threads must not hammer a shared cache line (an atomic add per iteration
// would make the backoff itself a contention point), but the result has to
// reach a global so the compiler cannot delete the loop.
func spin(n int) {
	s := int64(1)
	for i := 0; i < n; i++ {
		s += s<<1 ^ int64(i)
	}
	spinSink.Store(s)
}

// Panic is a handler that raises a RaceError, the "throw an exception"
// policy. Useful in tests that must prove a conflict occurs.
type Panic struct{}

// RaceError is the panic value raised by the Panic handler.
type RaceError struct{ Info Info }

func (e RaceError) Error() string {
	return fmt.Sprintf("isolation conflict detected: %v (record %#x, attempt %d)",
		e.Info.Kind, e.Info.Record, e.Info.Attempt)
}

// HandleConflict implements Handler by panicking with a RaceError.
func (*Panic) HandleConflict(info Info) { panic(RaceError{Info: info}) }
