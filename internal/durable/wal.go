package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/vfs"
)

// errWALClosed is returned to appenders and waiters racing a Close.
var errWALClosed = errors.New("durable: WAL closed")

// wal is the group-committed write-ahead log. Appenders encode records into
// an in-memory batch under mu and block in Wait; a background flusher writes
// and fsyncs the accumulated batch — one fsync covers every record appended
// since the previous flush, which is the entire point: fsync cost is paid
// per batch, not per transaction.
//
// Every append kicks the flusher, and a kicked flush first gathers the batch
// its previous flush predicts (flushLoop): as many records as that flush
// saw committers, for at most as long as that flush took. A lone committer
// is flushed at once; concurrent committers share one fsync.
type wal struct {
	fs  vfs.FS
	dir string
	inj *faultinject.Injector

	// wmu serializes file writes and rotation; flushes hold it across the
	// Write+Sync pair so a rotate cannot swap the file mid-batch.
	wmu      sync.Mutex
	f        vfs.File
	segIndex int

	mu         sync.Mutex
	cond       *sync.Cond
	buf        []byte // encoded records awaiting flush
	spare      []byte // recycled buffer for double-buffering
	pendingSeq uint64 // seq of the last record appended to buf
	pendingN   int64  // records in buf
	syncedSeq  uint64 // seq of the last record known durable
	err        error  // first flush error; sticky, poisons the log
	closed     bool

	stop     chan struct{}
	kick     chan struct{}
	done     chan struct{}
	appends  atomic.Int64
	fsyncs   atomic.Int64
	batchMax atomic.Int64
	batchSum atomic.Int64
	batchN   atomic.Int64
	rotates  atomic.Int64
}

const segPrefix = "seg-"

func segName(index int) string { return fmt.Sprintf("%s%06d.wal", segPrefix, index) }

// parseSegName returns the segment index encoded in a directory entry, or
// ok=false for non-segment entries.
func parseSegName(name string) (int, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), ".wal"))
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// openWAL creates segment segIndex (which must not exist: recovery always
// starts a fresh segment past any possibly-torn tail) and starts the
// flusher.
func openWAL(fs vfs.FS, dir string, segIndex int, inj *faultinject.Injector) (*wal, error) {
	f, err := fs.OpenFile(filepath.Join(dir, segName(segIndex)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := fs.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	w := &wal{
		fs: fs, dir: dir, inj: inj,
		f: f, segIndex: segIndex,
		stop: make(chan struct{}), kick: make(chan struct{}, 1), done: make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	go w.flushLoop()
	return w, nil
}

// Append encodes r into the pending batch and returns its sequence number
// (always non-zero). The record is NOT durable until Wait(seq) returns nil.
func (w *wal) Append(r *record) (uint64, error) {
	if fi := w.inj; fi != nil {
		fi.Fire(faultinject.WALAppend, r.TxnID)
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, errWALClosed
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return 0, err
	}
	w.buf = appendRecord(w.buf, r)
	w.pendingSeq++
	w.pendingN++
	seq := w.pendingSeq
	w.mu.Unlock()
	w.appends.Add(1)
	w.kickFlusher()
	return seq, nil
}

func (w *wal) kickFlusher() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// Wait blocks until seq is durable (the batch containing it was fsynced),
// the log is poisoned by a flush error, or the log is closed.
func (w *wal) Wait(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncedSeq < seq && w.err == nil && !w.closed {
		w.cond.Wait()
	}
	if w.err != nil {
		return w.err
	}
	if w.syncedSeq < seq {
		return errWALClosed
	}
	return nil
}

// flushLoop is the flusher. After each flush it keeps two figures: expect,
// the records that flush acknowledged plus those appended while it ran (the
// committers seen in one cycle), and bound, how long its Write+Sync took.
// A kicked flush starts once expect records are pending or bound after the
// kick, whichever comes first: committers that were all waiting on one
// fsync come back within a return gap and share the next one, a lone
// committer (expect 1) never waits, and a committer that left costs one
// wait of at most bound, after which expect drops to what was seen. expect
// starts at 0, so the first flush is immediate. Sync, rotate and Close
// flush directly and never gather.
func (w *wal) flushLoop() {
	defer close(w.done)
	var expect int64
	var bound time.Duration
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-w.kick:
		}
		pending, open := w.pending()
		if !open {
			return // closed: Close flushes or drops the batch; poisoned: no flush will succeed
		}
		if pending == 0 {
			continue // the kick's record went out with an earlier flush
		}
		if pending < expect && !w.gather(expect, bound, timer) {
			return
		}
		if n, took, after := w.flush(); n > 0 {
			expect, bound = n+after, took
		}
	}
}

// gather waits until expect records are pending, bound has passed, or the
// log is poisoned. It reports false when Close stops the flusher meanwhile.
// It sleeps on a timer rather than spinning: a sub-millisecond timer on an
// idle processor fires after about a millisecond (DESIGN §8), which is paid
// only when an expected committer does not come.
func (w *wal) gather(expect int64, bound time.Duration, timer *time.Timer) bool {
	timer.Reset(bound)
	defer timer.Stop()
	for {
		select {
		case <-w.stop:
			return false
		case <-timer.C:
			return true
		case <-w.kick:
			if pending, open := w.pending(); !open || pending >= expect {
				return open
			}
		}
	}
}

// pending returns the records awaiting flush, and open=false once the log is
// closed or poisoned.
func (w *wal) pending() (n int64, open bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pendingN, !w.closed && w.err == nil
}

// flush writes and fsyncs the pending batch, then wakes every waiter.
func (w *wal) flush() (n int64, took time.Duration, after int64) {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return w.flushLocked()
}

// flushLocked is flush with wmu already held (rotate calls it directly). It
// returns the records it made durable, how long their Write+Sync took, and
// how many records were appended meanwhile.
func (w *wal) flushLocked() (n int64, took time.Duration, after int64) {
	w.mu.Lock()
	if w.err != nil || len(w.buf) == 0 {
		w.mu.Unlock()
		return 0, 0, 0
	}
	data := w.buf
	w.buf = w.spare[:0]
	upTo := w.pendingSeq
	n = w.pendingN
	w.pendingN = 0
	w.mu.Unlock()

	start := time.Now()
	_, err := w.f.Write(data)
	if err == nil {
		if fi := w.inj; fi != nil {
			fi.Fire(faultinject.WALFsync, upTo)
		}
		err = w.f.Sync()
		w.fsyncs.Add(1)
	}
	took = time.Since(start)
	w.batchSum.Add(n)
	w.batchN.Add(1)
	if m := w.batchMax.Load(); n > m {
		w.batchMax.CompareAndSwap(m, n)
	}

	w.mu.Lock()
	w.spare = data[:0]
	if err != nil {
		w.err = err
	} else if upTo > w.syncedSeq {
		w.syncedSeq = upTo
	}
	after = w.pendingN
	w.cond.Broadcast()
	w.mu.Unlock()
	return n, took, after
}

// Sync forces the pending batch out and returns the first flush error, if
// any. Used for records that must be durable immediately (epoch markers).
func (w *wal) Sync() error {
	w.flush()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// rotate flushes and closes the current segment, then starts the next one.
// It returns the new segment's index; every record appended before the call
// is durable in a segment with a smaller index when it returns.
func (w *wal) rotate() (int, error) {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	w.flushLocked()
	w.mu.Lock()
	if err := w.err; err != nil {
		w.mu.Unlock()
		return 0, err
	}
	w.mu.Unlock()
	if err := w.f.Close(); err != nil {
		return 0, err
	}
	next := w.segIndex + 1
	f, err := w.fs.OpenFile(filepath.Join(w.dir, segName(next)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, w.poison(err)
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		f.Close()
		return 0, w.poison(err)
	}
	w.f = f
	w.segIndex = next
	w.rotates.Add(1)
	return next, nil
}

// poison records a fatal error so appenders and waiters stop blocking.
func (w *wal) poison(err error) error {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	w.kickFlusher() // a gathering flusher stops waiting
	return err
}

// Close stops the flusher. With flush set the pending batch is written and
// fsynced first (clean shutdown); without it the batch is dropped on the
// floor (crash simulation — the store's Abandon path).
func (w *wal) Close(flush bool) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	close(w.stop)
	<-w.done
	if flush {
		w.flush()
	}
	w.mu.Lock()
	err := w.err
	w.mu.Unlock()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// listSegments returns the WAL segment indices present in dir, sorted.
func listSegments(fs vfs.FS, dir string) ([]int, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, name := range names {
		if n, ok := parseSegName(name); ok {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}
