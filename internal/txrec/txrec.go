// Package txrec implements the per-object transaction record word described
// in Section 3.1 of "Enforcing Isolation and Ordering in STM" (PLDI 2007).
//
// A transaction record is a single word that tracks the synchronization
// state of one object. The paper's Figure 7 encodes four states in the
// three least-significant bits:
//
//	Encoding     State                Value in upper bits
//	x..x011      Shared               Version number
//	x..xx00      Exclusive            Owner address (here: owner ID)
//	x..x010      Exclusive anonymous  Version number
//	1..1111      Private              All ones
//
// The shared state permits read-only access by any number of transactions
// and carries a version number used for optimistic read concurrency. The
// exclusive state grants read-write access to the single owning transaction
// and carries the owner's identity. The exclusive-anonymous state is held
// by a non-transactional writer: it records that *some* thread owns the
// object for writing without saying who, and preserves the version number
// from the prior shared state. The private state (all ones) marks an object
// visible to only one thread (dynamic escape analysis, Section 4).
//
// The encoding is chosen so that the hot-path barrier checks are single-bit
// tests, exactly as in the paper's IA32 sequences:
//
//   - Testing bit 1 distinguishes Exclusive (bit 1 == 0) from every other
//     state. A non-transactional read barrier detects conflicts with
//     transactional writers with one "test ecx, 2".
//   - Atomically clearing bit 0 (x86 "lock btr") transitions Shared (…011)
//     to Exclusive anonymous (…010), acquiring write ownership for a
//     non-transactional writer in a single atomic instruction.
//   - Adding 9 to an Exclusive-anonymous word restores Shared *and*
//     increments the version: (v<<3 | 010) + 9 == ((v+1)<<3 | 011).
package txrec

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Word is the raw transaction-record value. It is stored in an
// atomic.Uint64 embedded in every object.
type Word = uint64

// State identifies one of the four transaction-record states of Figure 7.
type State uint8

// The four states of a transaction record.
const (
	Shared        State = iota // read-shared; upper bits hold a version
	Exclusive                  // owned by one transaction; upper bits hold owner ID
	ExclusiveAnon              // owned by one non-transactional writer
	Private                    // visible to a single thread (dynamic escape analysis)
)

func (s State) String() string {
	switch s {
	case Shared:
		return "shared"
	case Exclusive:
		return "exclusive"
	case ExclusiveAnon:
		return "exclusive-anonymous"
	case Private:
		return "private"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Bit-level constants of the Figure 7 encoding.
const (
	sharedBits   Word = 0b011
	exAnonBits   Word = 0b010
	stateMask3   Word = 0b111
	exclusiveLow Word = 0b11 // low two bits are 00 in the exclusive state

	// PrivateWord is the all-ones private encoding.
	PrivateWord Word = math.MaxUint64

	// versionShift is where the version number starts in shared and
	// exclusive-anonymous words.
	versionShift = 3

	// ownerShift is where the owner ID starts in exclusive words. The low
	// two bits of an exclusive word are zero, so owner IDs are shifted by
	// two; owner ID zero is reserved (it would make the whole word zero).
	ownerShift = 2

	// ReleaseIncrement is the constant added to an owned record to release
	// it back to Shared while bumping the version: +8 increments the
	// version field (bit 3) and +1 turns the …010 (or …x00 after masking)
	// state bits back into …011.
	ReleaseIncrement Word = 9

	// MaxVersion is the largest representable version number.
	MaxVersion = PrivateWord >> versionShift

	// MaxOwner is the largest representable owner ID.
	MaxOwner = PrivateWord >> ownerShift
)

// MakeShared builds a shared-state word carrying the given version number.
func MakeShared(version uint64) Word {
	return version<<versionShift | sharedBits
}

// MakeExclusive builds an exclusive-state word owned by the transaction
// with the given non-zero ID.
func MakeExclusive(owner uint64) Word {
	if owner == 0 {
		panic("txrec: owner ID must be non-zero")
	}
	return owner << ownerShift
}

// MakeExclusiveAnon builds an exclusive-anonymous word preserving the given
// version number from the record's prior shared state.
func MakeExclusiveAnon(version uint64) Word {
	return version<<versionShift | exAnonBits
}

// StateOf decodes the state of a record word.
func StateOf(w Word) State {
	switch {
	case w == PrivateWord:
		return Private
	case w&exclusiveLow == 0:
		return Exclusive
	case w&stateMask3 == sharedBits:
		return Shared
	case w&stateMask3 == exAnonBits:
		return ExclusiveAnon
	default:
		// Only the private word may have low bits 111; anything else is a
		// corrupted record.
		panic(fmt.Sprintf("txrec: invalid record word %#x", w))
	}
}

// IsShared reports whether w is in the shared state.
func IsShared(w Word) bool { return w&stateMask3 == sharedBits && w != PrivateWord }

// IsExclusive reports whether w is owned by a transaction.
func IsExclusive(w Word) bool { return w&exclusiveLow == 0 }

// IsExclusiveAnon reports whether w is owned by a non-transactional writer.
func IsExclusiveAnon(w Word) bool { return w&stateMask3 == exAnonBits }

// IsPrivate reports whether w is the private (all ones) encoding.
func IsPrivate(w Word) bool { return w == PrivateWord }

// ConflictsWithRead reports whether a non-transactional read of an object
// with record w must invoke the conflict handler. Per Section 3.2, a
// single test of bit 1 suffices: only the Exclusive state (a transactional
// writer) clears it. An exclusive-anonymous owner is another
// non-transactional writer, which the paper's read barrier deliberately
// ignores ("this barrier may not detect some conflicts between two
// non-transactional threads as such conflicts do not violate any
// transaction's isolation").
func ConflictsWithRead(w Word) bool { return w&2 == 0 }

// ConflictsWithAnyWriter reports whether any writer — transactional or
// not — currently owns the record. Per the paper's footnote, inspecting
// only the lowest bit detects both kinds of concurrent writers.
func ConflictsWithAnyWriter(w Word) bool { return w&1 == 0 }

// Version extracts the version number from a shared or exclusive-anonymous
// word.
func Version(w Word) uint64 {
	if IsExclusive(w) {
		panic("txrec: version requested from exclusive record")
	}
	return w >> versionShift
}

// Owner extracts the owner ID from an exclusive word.
func Owner(w Word) uint64 {
	if !IsExclusive(w) {
		panic("txrec: owner requested from non-exclusive record")
	}
	return w >> ownerShift
}

// Rec is an atomically-accessed transaction record. It is embedded in every
// managed object.
type Rec struct {
	w atomic.Uint64
}

// Init sets the record's initial state without synchronization. It must be
// called before the object is visible to any other thread.
func (r *Rec) Init(w Word) { r.w.Store(w) }

// Load returns the current record word.
func (r *Rec) Load() Word { return r.w.Load() }

// Store unconditionally replaces the record word. Callers must own the
// record or otherwise know that no other thread can race.
func (r *Rec) Store(w Word) { r.w.Store(w) }

// CompareAndSwap atomically replaces old with new and reports success. It
// is the acquire primitive used by transactional open-for-write.
func (r *Rec) CompareAndSwap(old, new Word) bool { return r.w.CompareAndSwap(old, new) }

// AcquireAnon attempts the paper's non-transactional write-barrier acquire:
// an atomic bit-test-and-reset of bit 0 ("lock btr [TxRec],0"). On x86 the
// instruction is unconditional; here it is an atomic AND that clears bit 0
// and returns the previous word. Acquisition succeeded iff bit 0 was
// previously set, which transitions Shared (…011) to ExclusiveAnon (…010).
// If the record was already in an exclusive state (bit 0 clear), the word
// is unchanged and the caller must invoke the conflict handler.
//
// The caller is responsible for checking for the Private state first when
// dynamic escape analysis is enabled; a private object is visible to only
// one thread, so no other thread can race with that check.
// Note: implemented as a CAS loop rather than atomic.Uint64.And because the
// And intrinsic miscompiles on go1.24.0 amd64 (the flag-register allocation
// clobbers a live register holding the receiver of the caller's next load).
// The CAS loop is semantically identical to an atomic AND.
func (r *Rec) AcquireAnon() (prev Word, acquired bool) {
	for {
		prev = r.w.Load()
		if prev&1 == 0 {
			return prev, false // already exclusive; word unchanged (BTR no-op)
		}
		if r.w.CompareAndSwap(prev, prev&^1) {
			return prev, true
		}
	}
}

// ReleaseAnon releases a record acquired by AcquireAnon, restoring the
// Shared state and incrementing the version in a single atomic add of 9,
// exactly the paper's "add [TxRec],9". It is the release the encoding was
// designed for; strong.Barriers, which also has a commit clock to answer to,
// releases by a Store of a version it computes from that clock instead
// (DESIGN.md §2, §11).
func (r *Rec) ReleaseAnon() { r.w.Add(ReleaseIncrement) }

// ReleaseOwned releases a transactionally-owned (Exclusive) record back to
// Shared with the version succeeding prior, the version observed when the
// record was acquired. It is used both at commit and after rollback on
// abort: either way the version must advance so that optimistic readers
// who observed intermediate state fail validation.
func (r *Rec) ReleaseOwned(prior uint64) { r.w.Store(MakeShared(prior + 1)) }

// ReleaseOwnedAt releases a transactionally-owned record back to Shared
// stamped with the commit clock's write version, used by committing
// transactions under commit-clock validation. The stored version is
// max(stamp, prior+1): the stamp normally dominates (the clock advanced at
// least to prior's commit before this release), but per-object version
// monotonicity must hold even when abort bumps or anonymous releases have
// pushed the object's version past the clock. stamp 0 degrades to
// ReleaseOwned semantics.
func (r *Rec) ReleaseOwnedAt(prior, stamp uint64) {
	v := prior + 1
	if stamp > v {
		v = stamp
	}
	r.w.Store(MakeShared(v))
}

// Publish transitions a Private record to Shared with version 1. It must
// only be called by the single thread that can see the object.
func (r *Rec) Publish() { r.w.Store(MakeShared(1)) }
