package objmodel

import (
	"fmt"
	"sync/atomic"

	"repro/internal/txrec"
)

// clockLimit is the ceiling at which the commit clock refuses to advance, and
// at which a non-transactional release refuses to stamp a version. Version
// numbers live in the upper 61 bits of a transaction-record word
// (txrec.MaxVersion). An object's version comes from the clock (a committed
// release stamps it), or leads the clock: a non-transactional release stores
// one past the larger of the clock and the object's own version, so a version
// can lead the clock by one for every non-transactional write to the object
// since a transaction last read it (a read raises the clock over the
// version). Those releases go through CheckVersion, so the versions they
// store stay below clockLimit however long such a run is; what is left above
// a checked or clock-stamped version is the +1 of a release that restores or
// keeps an object's values (an abort, a commit that took no write version, a
// commit to an object that led the clock), which is what the margin below
// txrec.MaxVersion is for. 2^61 is unreachable in practice; the guards exist
// so a wraparound would be a loud panic, never a silent validation
// false-negative (a wrapped clock could equal a stale snapshot and let the
// fast path admit an inconsistent read set).
const clockLimit = txrec.MaxVersion - (1 << 20)

// CheckVersion returns v, the version a release is about to store ahead of
// the clock, and panics if it has reached the clock's ceiling, as Tick and
// Raise do for the clock itself.
func CheckVersion(v uint64) uint64 {
	if v >= clockLimit {
		panic(fmt.Sprintf("objmodel: object version overflow (release at %#x)", v))
	}
	return v
}

// CommitClock is a heap-global version clock for TL2-style commit
// validation. Transactions snapshot it at begin. The invariant that makes
// "clock still equals my snapshot" collapse read-set validation to one
// compare: every mutation of shared state that a live snapshot may have read
// moves the clock before it is visible. A writing commit takes its write
// version from the clock while it holds its records; a reaper completing a
// committed orphan ticks before it releases; a non-transactional write
// barrier ticks before its release unless the object's version is still
// above the clock, which proves no snapshot has read it (strong.Barriers).
// Releases that restore or keep an object's values (aborts, commits without
// a write version) invalidate nothing and only raise the clock as far as the
// version they store, which keeps that proof sound (txn.Txn.CoverBump).
//
// Advancement is sampled in the GV4 style ("pass on failure"): a committer
// attempts one CAS to increment the clock and, if another committer got
// there first, adopts the new value instead of retrying. Concurrent
// committers may share a write version — both hold disjoint record
// ownership and both validated, so sharing a stamp is safe — and the hot
// cache line takes at most one successful write per tick instead of one
// per committer.
//
// The counter is padded to a cache line on each side so clock traffic
// never false-shares with neighbouring heap fields.
type CommitClock struct {
	_ [64]byte
	v atomic.Uint64
	_ [64]byte
}

// Load returns the current clock value.
func (c *CommitClock) Load() uint64 { return c.v.Load() }

// Tick advances the clock by one in the pass-on-failure style, for writers
// that need the clock moved past its current value but do not need the
// resulting stamp: non-transactional write barriers (when a snapshot may have
// read the object they release) and orphan reapers. If
// the CAS fails some other writer advanced the clock concurrently, which
// serves the same purpose.
func (c *CommitClock) Tick() {
	cur := c.v.Load()
	if cur >= clockLimit {
		panic(fmt.Sprintf("objmodel: commit clock overflow (value %#x)", cur))
	}
	c.v.CompareAndSwap(cur, cur+1)
}

// Advance obtains a write version for a committing transaction: it attempts
// to increment the clock and returns the post-increment value, or — if a
// concurrent committer won the race — the raced-ahead value it observes
// instead (GV4). advanced reports whether this caller's CAS performed the
// increment, for stats.
func (c *CommitClock) Advance() (wv uint64, advanced bool) {
	cur := c.v.Load()
	if cur >= clockLimit {
		panic(fmt.Sprintf("objmodel: commit clock overflow (value %#x)", cur))
	}
	if c.v.CompareAndSwap(cur, cur+1) {
		return cur + 1, true
	}
	return c.v.Load(), false
}

// AdvanceFrom moves the clock from cur to cur+1 with a single CAS and
// reports whether this caller performed the step. A committer passes a
// value it sampled before the validation that justifies its commit: success
// proves no other writer obtained a version in between, so the step is
// both the end of that validation and the commit's write version (cur+1).
// On failure nothing changed; the caller re-samples and re-validates.
func (c *CommitClock) AdvanceFrom(cur uint64) bool {
	if cur >= clockLimit {
		panic(fmt.Sprintf("objmodel: commit clock overflow (value %#x)", cur))
	}
	return c.v.CompareAndSwap(cur, cur+1)
}

// Raise lifts the clock to at least v. Readers use it when they observe an
// object version above their snapshot (anonymous releases store versions
// ahead of the clock, and a release on top of one keeps the lead), so that
// the extended snapshot taken right after covers the observed version;
// releases that bump a version without changing the object's values use it
// so that no such version leads the clock.
func (c *CommitClock) Raise(v uint64) {
	if v >= clockLimit {
		panic(fmt.Sprintf("objmodel: commit clock overflow (raise to %#x)", v))
	}
	for {
		cur := c.v.Load()
		if cur >= v || c.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Reset forces the clock to v. Test hook only: callers must guarantee no
// transaction is in flight, since snapshots taken against the old value
// become meaningless.
func (c *CommitClock) Reset(v uint64) { c.v.Store(v) }
