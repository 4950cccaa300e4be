package durable

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vfs"
)

// syncHookFS is an in-memory file system whose file Syncs run hook first:
// a sleep stands in for a disk, a channel for a disk the test holds.
type syncHookFS struct {
	*vfs.FaultFS
	hook func()
}

func (fs *syncHookFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := fs.FaultFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &syncHookFile{File: f, hook: fs.hook}, nil
}

type syncHookFile struct {
	vfs.File
	hook func()
}

func (f *syncHookFile) Sync() error {
	f.hook()
	return f.File.Sync()
}

// slowSyncFS returns a file system whose fsync sleeps d, and the mean time
// its fsyncs took so far.
func slowSyncFS(d time.Duration) (*syncHookFS, func() time.Duration) {
	var n, total atomic.Int64
	fs := &syncHookFS{FaultFS: NewTestFS(), hook: func() {
		start := time.Now()
		time.Sleep(d)
		total.Add(int64(time.Since(start)))
		n.Add(1)
	}}
	return fs, func() time.Duration { return time.Duration(total.Load() / max(n.Load(), 1)) }
}

const testSync = 2 * time.Millisecond

// TestWALGroupCommit drives concurrent appenders through one wal and checks
// that every record survives in order and that fsyncs were batched. The
// fsync takes time, as a disk's does: over one that returns at once there
// is no flush for the appenders to pile up behind.
func TestWALGroupCommit(t *testing.T) {
	fs, _ := slowSyncFS(testSync)
	w, err := openWAL(fs, "/d", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	const G, N = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < N; i++ {
				seq, err := w.Append(&record{Kind: kindCommit, Epoch: 1, TxnID: uint64(g*N + i), Stamp: 1})
				if err != nil {
					t.Error(err)
					return
				}
				if err := w.Wait(seq); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(true); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("/d/" + segName(1))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for off := 0; off < len(data); {
		_, n, err := decodeRecord(data[off:])
		if err != nil {
			t.Fatalf("record %d: %v", count, err)
		}
		off += n
		count++
	}
	if count != G*N {
		t.Fatalf("replayed %d records, appended %d", count, G*N)
	}
	fsyncs := w.fsyncs.Load()
	if fsyncs == 0 || fsyncs >= int64(G*N) {
		t.Fatalf("fsyncs = %d for %d acked appends — group commit not batching", fsyncs, G*N)
	}
	if w.batchMax.Load() < 2 {
		t.Fatalf("max batch %d, want >= 2", w.batchMax.Load())
	}
}

// TestGroupCommitTwoCommittersBatch: two closed-loop committers share an
// fsync. A flusher that starts as soon as one record is pending makes them
// alternate instead, at one record per fsync.
func TestGroupCommitTwoCommittersBatch(t *testing.T) {
	fs, _ := slowSyncFS(testSync)
	s, arr := openBank(t, fs, "/d", "eager", nil)
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := transfer(s, arr, g, 2+g); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if d := s.Durability(); d.GroupCommitMean < 1.8 {
		t.Fatalf("group_commit_mean %.3f over %d appends and %d fsyncs, want >= 1.8", d.GroupCommitMean, d.WALAppends, d.Fsyncs)
	}
}

// TestGroupCommitLoneCommitterDoesNotWait: one committer gets one fsync per
// commit and no gather in front of it; a commit that waited for a second
// committer would take about two sync times.
func TestGroupCommitLoneCommitterDoesNotWait(t *testing.T) {
	fs, meanSync := slowSyncFS(testSync)
	s, arr := openBank(t, fs, "/d", "eager", nil)
	defer s.Close()
	const n = 50
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := transfer(s, arr, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	mean := time.Since(start) / n
	d := s.Durability()
	if d.Fsyncs != d.WALAppends {
		t.Fatalf("%d fsyncs for %d appends, want one each", d.Fsyncs, d.WALAppends)
	}
	if sync := meanSync(); mean >= sync*3/2 {
		t.Fatalf("mean commit latency %v with fsyncs of %v: the lone committer waited", mean, sync)
	}
}

// heldDisk is a file system whose fsyncs the test holds: each one signals
// entered, then blocks until the test sends on release. Syncs pass straight
// through once pass is set, and one that nobody takes within unheldAfter
// (the test is already failing) goes on by itself.
type heldDisk struct {
	*syncHookFS
	entered, release chan struct{}
	pass             atomic.Bool
}

const unheldAfter = 2 * time.Second

func newHeldDisk() *heldDisk {
	d := &heldDisk{entered: make(chan struct{}), release: make(chan struct{})}
	d.syncHookFS = &syncHookFS{FaultFS: NewTestFS(), hook: func() {
		if d.pass.Load() {
			return
		}
		select {
		case d.entered <- struct{}{}:
			<-d.release
		case <-time.After(unheldAfter):
		}
	}}
	return d
}

// hold waits for the next fsync to start, holds it for d, and returns how
// long after the call it started.
func (d *heldDisk) hold(dur time.Duration) time.Duration {
	start := time.Now()
	<-d.entered
	startedAfter := time.Since(start)
	time.Sleep(dur)
	d.release <- struct{}{}
	return startedAfter
}

func appendRec(t *testing.T, w *wal, id uint64) uint64 {
	t.Helper()
	seq, err := w.Append(&record{Kind: kindCommit, Epoch: 1, TxnID: id, Stamp: id})
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func waitRec(t *testing.T, w *wal, seq uint64) {
	t.Helper()
	if err := w.Wait(seq); err != nil {
		t.Fatal(err)
	}
}

// pairFlushed brings a fresh wal on disk to a flush that acknowledged two
// records while nothing was appended: the flusher then expects two
// committers and waits at most about hold for the second. Records 1-3 are
// durable when it returns.
func pairFlushed(t *testing.T, disk *heldDisk, hold time.Duration) *wal {
	t.Helper()
	w, err := openWAL(disk, "/d", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := appendRec(t, w, 1)
	<-disk.entered // a's flush is in its fsync
	b := appendRec(t, w, 2)
	time.Sleep(hold)
	disk.release <- struct{}{}
	waitRec(t, w, a) // that flush saw a and b: the flusher now expects two, and gathers for b's partner
	c := appendRec(t, w, 3)
	disk.hold(hold)
	waitRec(t, w, b)
	waitRec(t, w, c)
	if n, max := w.batchN.Load(), w.batchMax.Load(); n != 2 || max != 2 {
		t.Fatalf("%d flushes with the largest batch %d, want b and c in one flush after a's", n, max)
	}
	return w
}

// TestGroupCommitCommitterLeaves: after a flush that acknowledged two
// records, one committer's next commit waits at most one bound for the
// other, is flushed alone, and the flush after it no longer waits.
func TestGroupCommitCommitterLeaves(t *testing.T) {
	const hold = 50 * time.Millisecond // the pair's flush: the bound the next gather waits
	const hold2 = 100 * time.Millisecond
	disk := newHeldDisk()
	w := pairFlushed(t, disk, hold)
	defer w.Close(true)
	fsyncs := w.fsyncs.Load()

	start := time.Now()
	d := appendRec(t, w, 4)
	if after := disk.hold(hold2); after < hold {
		t.Fatalf("the lone record's fsync started %v after it was appended, before the bound %v", after, hold)
	}
	waitRec(t, w, d)
	if took, limit := time.Since(start), hold+hold2+hold; took > limit {
		t.Fatalf("the lone committer waited %v, want at most the bound plus one sync plus slack (%v)", took, limit)
	}
	if got := w.fsyncs.Load(); got != fsyncs+1 {
		t.Fatalf("%d fsyncs for the lone record, want 1", got-fsyncs)
	}

	// That flush acknowledged one record and saw none appended: the next
	// flush starts at once, well inside hold2 (the bound it would wait).
	e := appendRec(t, w, 5)
	if after := disk.hold(0); after >= hold2/2 {
		t.Fatalf("the next fsync started %v after its record, want no gather (bound %v)", after, hold2)
	}
	waitRec(t, w, e)
	if got := w.fsyncs.Load(); got != fsyncs+2 {
		t.Fatalf("%d fsyncs for two lone records, want 2", got-fsyncs)
	}
}

// TestGroupCommitCloseDuringGather: a Close that lands while the flusher
// gathers does not wait out the gather. Close(true) makes the pending record
// durable; Close(false), the store's Abandon, drops it.
func TestGroupCommitCloseDuringGather(t *testing.T) {
	const hold = 100 * time.Millisecond
	for _, flush := range []bool{true, false} {
		disk := newHeldDisk()
		w := pairFlushed(t, disk, hold)
		appendRec(t, w, 4) // the flusher gathers for its partner, for up to hold
		time.Sleep(hold / 20)
		disk.pass.Store(true)
		start := time.Now()
		if err := w.Close(flush); err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took >= hold/2 {
			t.Fatalf("Close(%v) took %v during a gather bounded by %v", flush, took, hold)
		}
		disk.Crash()
		data, err := disk.ReadFile("/d/" + segName(1))
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for len(data) > 0 {
			_, n, err := decodeRecord(data)
			if err != nil {
				t.Fatalf("record %d: %v", count, err)
			}
			data = data[n:]
			count++
		}
		if want := map[bool]int{true: 4, false: 3}[flush]; count != want {
			t.Fatalf("Close(%v) left %d durable records, want %d", flush, count, want)
		}
	}
}
