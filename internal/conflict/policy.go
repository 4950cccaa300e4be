// Contention policies: the Handler interface extended with an arbitration
// decision. The paper's conflict manager has exactly one behavior — "back
// off and let the barriers retry" (Section 3.2) — which starves long
// transactions under skew: a transaction that must hold a hot record for a
// while keeps losing the acquire race to a stream of short writers, and
// exponential backoff only widens the gap. Priority-based contention
// management (Chaudhary et al., "Achieving Starvation-Freedom in
// Multi-Version Transactional Memory Systems") bounds that: give the
// conflict manager the identities of both parties and let it pick a winner.
//
// A Policy decides one of three resolutions per conflict:
//
//	Wait       back off and retry the access (the classic behavior; the
//	           policy performs its own waiting before returning)
//	SelfAbort  the contender aborts itself and restarts from the top
//	AbortOther the contender dooms the record's owner: the runtime sets the
//	           owner's doom flag, the owner notices at its next access or
//	           commit validation, aborts (releasing its records), and
//	           restarts — the winner then acquires the record
//
// AbortOther is advisory, never forcible: the winner cannot roll back the
// victim's state itself (only the owning thread can safely replay an undo
// log), so the txrec word stays owned until the victim's own abort releases
// it. A victim that has already passed commit validation simply commits;
// dooming is then a no-op and the winner keeps waiting, which is exactly
// the race-free behavior the txrec state machine guarantees.
package conflict

import (
	"fmt"
)

// Decision is a Policy's resolution of one conflict.
type Decision uint8

// Decisions.
const (
	// Wait retries the access after the policy's own backoff.
	Wait Decision = iota
	// SelfAbort aborts the contending transaction; it restarts from the top.
	SelfAbort
	// AbortOther dooms the owning transaction so it aborts at its next
	// safe point, releasing the contended record.
	AbortOther
)

func (d Decision) String() string {
	switch d {
	case Wait:
		return "wait"
	case SelfAbort:
		return "self-abort"
	case AbortOther:
		return "abort-other"
	default:
		return fmt.Sprintf("Decision(%d)", uint8(d))
	}
}

// Policy is a Handler that can arbitrate conflicts instead of always
// waiting. Runtimes probe their configured Handler for this interface; a
// plain Handler behaves as a Policy that always waits.
//
// Resolve must perform its own waiting before returning Wait (exactly as
// HandleConflict does); for SelfAbort and AbortOther the runtime acts
// immediately, so the policy should not sleep first.
type Policy interface {
	Handler
	Resolve(Info) Decision
}

// AsPolicy adapts any Handler to the Policy interface: a legacy handler's
// HandleConflict is its waiting, and the decision is always Wait.
func AsPolicy(h Handler) Policy {
	if p, ok := h.(Policy); ok {
		return p
	}
	return waitOnly{h}
}

type waitOnly struct{ h Handler }

func (w waitOnly) HandleConflict(info Info) { w.h.HandleConflict(info) }
func (w waitOnly) Resolve(info Info) Decision {
	w.h.HandleConflict(info)
	return Wait
}

// Resolve makes the default Backoff a Policy explicitly (it would be
// wrapped by AsPolicy anyway): back off, then retry. Keeping Backoff on the
// wait-only path preserves the paper's Section 3.2 behavior and its cost.
func (b *Backoff) Resolve(info Info) Decision {
	b.HandleConflict(info)
	return Wait
}

// Timestamp is the greedy age-based policy: older transactions win. On a
// conflict with a live transactional owner, the older party (smaller ID —
// IDs are age stamps that survive retries, in begin order up to the block
// of IDs each descriptor takes; see Info) dooms the younger; a younger
// contender aborts itself instead of waiting. The oldest live transaction
// can therefore never lose an arbitration, and a retrying one is outranked
// only by the transactions older than it and at most 63 newcomers per other
// descriptor, so it becomes the oldest. That makes the policy
// starvation-free: whatever the oldest contends on, it either dooms the
// owner or is itself the owner.
//
// Conflicts without a live transactional owner (anonymous writers,
// non-transactional barriers, owner already finishing) fall back to
// backoff-and-retry, since there is nobody to arbitrate against.
type Timestamp struct {
	Stats Stats
}

// HandleConflict implements Handler for call sites that never arbitrate
// (the non-transactional barriers): plain backoff.
func (t *Timestamp) HandleConflict(info Info) {
	t.Stats.record(info.Kind)
	WaitAttempt(info.Attempt)
}

// Resolve implements Policy: older wins — except an irrevocable owner,
// which outranks age (it can never be doomed; the contender yields).
func (t *Timestamp) Resolve(info Info) Decision {
	t.Stats.record(info.Kind)
	if info.Self == 0 || info.Owner == 0 || !info.OwnerActive {
		WaitAttempt(info.Attempt)
		return Wait
	}
	if info.OwnerIrrevocable {
		WaitAttempt(info.Attempt)
		return Wait
	}
	if info.Self < info.Owner {
		return AbortOther
	}
	return SelfAbort
}

// Karma is the priority-accumulation policy: a transaction's priority is
// the work it has invested (reads + writes, accumulated across aborted
// attempts of the same atomic block, plus one unit per conflict endured),
// so repeatedly-victimized transactions grow strong enough to win. A
// contender waits while the owner outranks it, gaining rank with every
// conflict; once its priority plus the attempt count reaches the owner's
// priority, it dooms the owner. Ties break by age (older wins: the smaller
// ID, an age stamp up to the block it was taken in; see Info), so two
// equal-karma rivals cannot doom each other in the same round: IDs are
// unique, so exactly one of them is the older.
type Karma struct {
	Stats Stats
}

// HandleConflict implements Handler: plain backoff (barriers don't carry
// priorities).
func (k *Karma) HandleConflict(info Info) {
	k.Stats.record(info.Kind)
	WaitAttempt(info.Attempt)
}

// Resolve implements Policy.
func (k *Karma) Resolve(info Info) Decision {
	k.Stats.record(info.Kind)
	if info.Self == 0 || info.Owner == 0 || !info.OwnerActive {
		WaitAttempt(info.Attempt)
		return Wait
	}
	if info.OwnerIrrevocable {
		// No karma total outranks the irrevocable token; yield.
		WaitAttempt(info.Attempt)
		return Wait
	}
	rank := info.SelfPrio + int64(info.Attempt)
	switch {
	case rank > info.OwnerPrio:
		return AbortOther
	case rank == info.OwnerPrio && info.Self < info.Owner:
		return AbortOther
	default:
		WaitAttempt(info.Attempt)
		return Wait
	}
}

// PolicyNames lists the selectable contention policies, default first.
var PolicyNames = []string{"backoff", "timestamp", "karma"}

// ByName constructs a fresh contention policy: "backoff" (the paper's
// Section 3.2 default), "timestamp" (greedy, older wins), or "karma"
// (priority accumulation). It is the single point tools (stmbench -policy,
// the litmus harness) resolve policy names through.
func ByName(name string) (Policy, error) {
	switch name {
	case "", "backoff":
		return &Backoff{}, nil
	case "timestamp":
		return &Timestamp{}, nil
	case "karma":
		return &Karma{}, nil
	default:
		return nil, fmt.Errorf("conflict: unknown policy %q (have %v)", name, PolicyNames)
	}
}
