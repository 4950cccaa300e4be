package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"repro/internal/conflict"
	"repro/internal/stmapi"
	"repro/internal/vfs"
)

// The timing wrappers of the traced run. Each sits at a seam the runtimes
// already expose (CommonConfig.Handler, SetCommitSink, Options.FS) and records
// a span around the call it forwards.

// timingPolicy times every arbitration of a sampled transaction. Resolve runs
// on the contending transaction's goroutine, so it may write that worker's
// recorder.
type timingPolicy struct {
	inner conflict.Policy
	seg   *segment
}

func (p *timingPolicy) HandleConflict(info conflict.Info) { p.inner.HandleConflict(info) }

func (p *timingPolicy) Resolve(info conflict.Info) conflict.Decision {
	w := p.seg.workerOf(info.Self)
	if w == nil {
		return p.inner.Resolve(info)
	}
	start := now()
	d := p.inner.Resolve(info)
	w.rec.add(kConflict, w.phase, start, now())
	return d
}

// timingSink times the two halves of a durable commit: the redo append (under
// the transaction's records) and the wait for the group fsync (after them).
type timingSink struct {
	inner stmapi.CommitSink
	seg   *segment
}

func (s *timingSink) AppendRedo(txnID, stamp uint64, writes []stmapi.RedoWrite) (uint64, error) {
	w := s.seg.workerOf(txnID)
	if w == nil {
		return s.inner.AppendRedo(txnID, stamp, writes)
	}
	start := now()
	seq, err := s.inner.AppendRedo(txnID, stamp, writes)
	w.rec.add(kAppend, w.phase, start, now())
	w.waitSeq.Store(seq)
	return seq, err
}

func (s *timingSink) WaitDurable(seq uint64) error {
	for _, w := range s.seg.workers {
		if w.waitSeq.Load() == seq {
			start := now()
			err := s.inner.WaitDurable(seq)
			w.rec.add(kWait, w.phase, start, now())
			return err
		}
	}
	return s.inner.WaitDurable(seq)
}

// steadyDisk is the disk the gated durable runs use: whatever file system it
// decorates (an in-memory vfs.FaultFS) with an fsync that takes syncNs,
// whatever else the host is doing. It spins rather than sleeps, for a latency
// that does not depend on timer slack, and yields on every turn: a spin that
// kept its processor starved the collector and the woken workers, and
// throughput then read anything from 800 to 2200 operations per second.
type steadyDisk struct {
	vfs.FS
	syncNs int64
}

func (d *steadyDisk) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := d.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &steadyFile{File: f, syncNs: d.syncNs}, nil
}

type steadyFile struct {
	vfs.File
	syncNs int64
}

func (f *steadyFile) Sync() error {
	start := now()
	err := f.File.Sync()
	for now()-start < f.syncNs {
		runtime.Gosched()
	}
	return err
}

// fsTotals is what a timingFS counted.
type fsTotals struct {
	writes, syncs   int64
	writeNs, syncNs int64
	bytes, walBytes int64 // walBytes: the share of bytes written to WAL segments
}

func (t *fsTotals) add(o fsTotals) {
	t.writes += o.writes
	t.syncs += o.syncs
	t.writeNs += o.writeNs
	t.syncNs += o.syncNs
	t.bytes += o.bytes
	t.walBytes += o.walBytes
}

// timingFS decorates a vfs.FS: every file it opens times its writes and
// syncs. The other calls pass through untouched.
type timingFS struct {
	vfs.FS

	mu sync.Mutex
	fsTotals
	spans []span // the first maxKeptSpans, for the span file
}

func (fs *timingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: fs, wal: strings.HasPrefix(filepath.Base(name), "seg-")}, nil
}

func (fs *timingFS) reset() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.fsTotals, fs.spans = fsTotals{}, nil
}

// snapshot returns what was counted and kept so far.
func (fs *timingFS) snapshot() (fsTotals, []span) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.fsTotals, fs.spans[:len(fs.spans):len(fs.spans)]
}

func (fs *timingFS) record(kind spanKind, start, end int64) {
	if len(fs.spans) < maxKeptSpans {
		fs.spans = append(fs.spans, span{kind: kind, start: start, end: end})
	}
}

type timingFile struct {
	vfs.File
	fs  *timingFS
	wal bool
}

func (f *timingFile) Write(p []byte) (int, error) {
	start := now()
	n, err := f.File.Write(p)
	end := now()
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.writes++
	fs.writeNs += end - start
	fs.bytes += int64(n)
	if f.wal {
		fs.walBytes += int64(n)
	}
	fs.record(kVfsWrite, start, end)
	return n, err
}

func (f *timingFile) Sync() error {
	start := now()
	err := f.File.Sync()
	end := now()
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.syncs++
	fs.syncNs += end - start
	fs.record(kVfsSync, start, end)
	return err
}
