package objmodel

import "sync/atomic"

// MVVersion is one superseded version in an object's multi-version chain.
// The newest committed version of an object is the object itself: its slots,
// at the version its Shared transaction record carries. The chain holds what
// the slots used to be: a committer that is about to overwrite them pushes
// their image, stamped with the record version it acquired at, and
// Object.MVHead points at the most recent such pre-image, each node's prev
// at the next older one. The image of node n was the object's committed
// state from n.TS until the TS of the node above it (for the head: until the
// record's current version), so a snapshot at rv older than the record reads
// the newest node with TS <= rv.
//
// TS and Vals are written before the store that publishes the node and
// never while it is reachable, so snapshot readers traverse the chain with
// no synchronization beyond the head load. The prev pointer is the one
// mutable field, and only the holder of the object's record mutates it: to
// sever the chain below the reclamation watermark by storing nil. Readers
// that raced past the cut still hold the detached tail through their local
// pointer, and Go's GC keeps it alive until they finish; reclamation here
// means "unreachable from the object", not "freed now".
type MVVersion struct {
	// TS is the version at which this image became the object's committed
	// state. Timestamps strictly decrease along the chain, and the head's is
	// below the version in the object's transaction record.
	TS uint64

	// Vals is the full slot image of the object at TS. Whole-object images
	// keep a chain read to a single walk regardless of which slots the
	// superseding writer touched.
	Vals []uint64

	prev atomic.Pointer[MVVersion]

	// small backs Vals for objects of up to len(small) slots, so a node and
	// its image are one allocation.
	small [4]uint64
}

// NewMVVersion returns an unlinked node stamped ts with a zeroed image of n
// slots, for the caller to fill before publishing the node.
func NewMVVersion(ts uint64, n int) *MVVersion {
	v := &MVVersion{TS: ts}
	if n <= len(v.small) {
		v.Vals = v.small[:n]
	} else {
		v.Vals = make([]uint64, n)
	}
	return v
}

// Prev returns the next older version, or nil at the end of the chain.
func (v *MVVersion) Prev() *MVVersion { return v.prev.Load() }

// SetPrev links (or, with nil, severs) the chain below v.
func (v *MVVersion) SetPrev(p *MVVersion) { v.prev.Store(p) }
