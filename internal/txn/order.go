package txn

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/objmodel"
)

// WriteBackOrder is the commit-ticket chain of the runtimes that buffer
// writes and copy them back after the commit point (lazy, multi-version).
// An ordered commit takes a ticket at its commit point, in serialization
// order, and marks it complete once its write-back has finished; in
// quiescence mode it then waits until every ticket before its own is
// complete, so no transaction returns while an earlier one is still applying
// its updates (the lazy-versioning quiescence of Section 3.4). Nobody waits
// without quiescence, and a commit serialized unordered (Deferred.Serialize)
// never touches the chain.
//
// done is the contiguous completion watermark; tickets completed out of
// order (including by waiters that abandoned their wait) park in pending
// until the watermark reaches them.
type WriteBackOrder struct {
	tickets atomic.Uint64
	done    atomic.Uint64
	pending map[uint64]struct{}
	mu      sync.Mutex
	cv      *sync.Cond
}

// Init prepares the chain in place.
func (w *WriteBackOrder) Init() {
	w.pending = make(map[uint64]struct{})
	w.cv = sync.NewCond(&w.mu)
}

// Take issues the next ticket; tickets start at 1, so 0 on a descriptor means
// none. Callers take it at their commit point and store it on the
// descriptor, so a reaper can complete an orphan's slot.
func (w *WriteBackOrder) Take() uint64 { return w.tickets.Add(1) }

// MarkComplete records that ticket's write-back has finished and advances
// the completion watermark past every parked ticket it unblocks. Completion
// is decoupled from waiting so that a waiter abandoning its wait
// (cancellation, crash injection) can never stall later tickets. A
// committer marks its own ticket before any waiting: its write-back is
// complete however long its predecessors take, so a successor never waits
// on a transaction that has already finished its stores.
func (w *WriteBackOrder) MarkComplete(ticket uint64) {
	w.mu.Lock()
	w.pending[ticket] = struct{}{}
	for {
		next := w.done.Load() + 1
		if _, ok := w.pending[next]; !ok {
			break
		}
		delete(w.pending, next)
		w.done.Store(next)
	}
	w.cv.Broadcast()
	w.mu.Unlock()
}

// AwaitOrder blocks until the completion watermark reaches ticket — every
// transaction serialized before it has finished applying its updates. A
// cancelled context (nil for none) abandons the wait and returns its error;
// the caller's commit is already applied.
func (w *WriteBackOrder) AwaitOrder(ctx context.Context, ticket uint64) error {
	if ctx != nil {
		// Wake the cond-var wait when the context fires; without this a
		// waiter could sleep past its deadline until the next Broadcast.
		stop := context.AfterFunc(ctx, func() {
			w.mu.Lock()
			w.cv.Broadcast()
			w.mu.Unlock()
		})
		defer stop()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.done.Load() < ticket {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		w.cv.Wait()
	}
	return nil
}

// SortByRef sorts objects by their heap handle, the order in which
// commit-time acquirers lock their write sets so that concurrent committers
// cannot deadlock (insertion sort; write sets are small).
func SortByRef(objs []*objmodel.Object) {
	for i := 1; i < len(objs); i++ {
		o := objs[i]
		j := i - 1
		for j >= 0 && objs[j].Ref() > o.Ref() {
			objs[j+1] = objs[j]
			j--
		}
		objs[j+1] = o
	}
}
