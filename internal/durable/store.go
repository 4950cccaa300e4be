package durable

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/vfs"
)

// Options configures a Store.
type Options struct {
	// Dir is the store's directory (created if absent): WAL segments,
	// snapshots, nothing else.
	Dir string

	// FS is the file system to run on; nil means the real one (vfs.OS).
	FS vfs.FS

	// Runtime names the STM runtime (a stmapi registry key: "eager",
	// "lazy", "mvstm"). It must implement stmapi.DurableRuntime.
	Runtime string

	// Common is the runtime configuration.
	Common stmapi.CommonConfig

	// Injector, when non-nil, is installed on the runtime and fired at the
	// WAL points (wal-append, wal-fsync, wal-rename) — the whitebox crash
	// harness's hook. An orphan injected at a commit-protocol point past the
	// commit point, before its redo record reached the WAL, poisons the
	// sink: every later commit through the store fails with
	// txn.ErrSinkPoisoned and none is acked (DESIGN.md §14.1).
	Injector *faultinject.Injector

	// CheckpointEvery starts a background checkpointer with that period;
	// 0 disables it (checkpoints still happen at open and on demand).
	CheckpointEvery time.Duration

	// NoOpenCheckpoint skips the checkpoint normally taken right after
	// recovery. Verification opens use it to inspect exactly the recovered
	// state without rewriting anything.
	NoOpenCheckpoint bool
}

// TxnStamp identifies one committed transaction across process generations.
type TxnStamp struct {
	Epoch uint64 `json:"epoch"`
	TxnID uint64 `json:"txn_id"`
	Stamp uint64 `json:"stamp"`
}

// RecoveryInfo reports what recovery-on-open found and replayed.
type RecoveryInfo struct {
	// Epoch is the new process generation (max seen + 1).
	Epoch uint64 `json:"epoch"`
	// SnapshotStamp is the commit-clock stamp of the snapshot the heap was
	// loaded from (0 if none existed).
	SnapshotStamp uint64 `json:"snapshot_stamp"`
	// Segments and Records count what the WAL tail replay consumed.
	Segments int `json:"segments"`
	Records  int `json:"records"`
	// Txns lists every commit record replayed, in log order. Commits older
	// than the snapshot are not listed — they are inside SnapshotStamp.
	Txns []TxnStamp `json:"txns,omitempty"`
	// MaxStamp is the highest commit stamp recovered (snapshot or WAL); the
	// commit clock restarts above it.
	MaxStamp uint64 `json:"max_stamp"`
	// TornTail reports that a generation's last segment ended in a truncated
	// record — expected after a crash mid-append; replay of that generation
	// stops there.
	TornTail bool `json:"torn_tail,omitempty"`
}

// DurabilitySnapshot is a point-in-time copy of the store's counters, in the
// shape internal/metrics exports.
type DurabilitySnapshot struct {
	Epoch            uint64  `json:"epoch"`
	WALAppends       int64   `json:"wal_appends"`
	Fsyncs           int64   `json:"fsyncs"`
	GroupCommitBatch int64   `json:"group_commit_batch"` // max records per fsync
	GroupCommitMean  float64 `json:"group_commit_mean"`  // mean records per fsync
	Rotations        int64   `json:"wal_rotations"`
	Snapshots        int64   `json:"snapshots"`
	SnapshotAgeNs    int64   `json:"snapshot_age_ns"`  // since last successful checkpoint
	RecoveryReplays  int64   `json:"recovery_replays"` // WAL records replayed at open
}

// Store is a durable STM: a runtime bound to a write-ahead log. Run
// transactions through Atomic or the Runtime's entry points; when they
// return nil the commit is durable. Reopening the same directory recovers
// the committed heap.
type Store struct {
	fs   vfs.FS
	dir  string
	rt   stmapi.Runtime
	heap *objmodel.Heap
	wal  *wal
	inj  *faultinject.Injector

	epoch    uint64
	recovery RecoveryInfo

	ckMu       sync.Mutex // serializes checkpoints
	snapshots  atomic.Int64
	lastSnapNs atomic.Int64

	ckStop chan struct{}
	ckDone chan struct{}

	closed atomic.Bool
}

// Open builds the heap via setup, recovers committed state from dir
// (snapshot + WAL tail), constructs the named runtime over it, and starts a
// fresh WAL segment in a new epoch.
//
// setup must be deterministic: it recreates the same object population
// (same refs, same slot counts) on every open — recovery restores values
// into the objects setup allocates. Dynamic allocation inside transactions
// is outside the store's contract.
func Open(opts Options, setup func(*objmodel.Heap) error) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("durable: Options.Dir required")
	}
	fs := opts.FS
	if fs == nil {
		fs = vfs.OS{}
	}
	if err := fs.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}

	heap := objmodel.NewHeap()
	if setup != nil {
		if err := setup(heap); err != nil {
			return nil, fmt.Errorf("durable: setup: %w", err)
		}
	}

	info, maxEpoch, maxSeg, err := recoverState(fs, opts.Dir, heap)
	if err != nil {
		return nil, err
	}
	heap.Clock().Raise(info.MaxStamp)

	rt, err := stmapi.New(opts.Runtime, heap, opts.Common)
	if err != nil {
		return nil, err
	}
	drt, ok := rt.(stmapi.DurableRuntime)
	if !ok {
		return nil, fmt.Errorf("durable: runtime %q does not implement stmapi.DurableRuntime", opts.Runtime)
	}
	if opts.Injector != nil {
		rt.SetInjector(opts.Injector)
	}

	info.Epoch = maxEpoch + 1
	w, err := openWAL(fs, opts.Dir, maxSeg+1, opts.Injector)
	if err != nil {
		return nil, err
	}
	s := &Store{
		fs: fs, dir: opts.Dir, rt: rt, heap: heap, wal: w, inj: opts.Injector,
		epoch: info.Epoch, recovery: info,
	}
	// Stamp the new epoch into the log before any commit can: after a crash,
	// max(epoch) identifies this generation even if it commits nothing.
	if _, err := w.Append(&record{Kind: kindEpoch, Epoch: s.epoch}); err != nil {
		w.Close(false)
		return nil, err
	}
	if err := w.Sync(); err != nil {
		w.Close(false)
		return nil, err
	}
	drt.SetCommitSink(s)

	if !opts.NoOpenCheckpoint {
		if err := s.Checkpoint(); err != nil {
			s.Close()
			return nil, fmt.Errorf("durable: open checkpoint: %w", err)
		}
	}
	if opts.CheckpointEvery > 0 {
		s.ckStop = make(chan struct{})
		s.ckDone = make(chan struct{})
		go s.checkpointLoop(opts.CheckpointEvery)
	}
	return s, nil
}

// recoverState loads the newest valid snapshot into heap and replays the
// WAL tail over it.
func recoverState(fs vfs.FS, dir string, heap *objmodel.Heap) (RecoveryInfo, uint64, int, error) {
	var info RecoveryInfo
	snap, err := loadBestSnapshot(fs, dir)
	if err != nil {
		return info, 0, 0, err
	}
	maxEpoch := uint64(0)
	replayFrom := 1
	if snap != nil {
		for _, o := range snap.Objs {
			if err := applyWrite(heap, o.Ref, 0, 0, true, o.Vals); err != nil {
				return info, 0, 0, fmt.Errorf("durable: snapshot: %w", err)
			}
		}
		info.SnapshotStamp = snap.Stamp
		info.MaxStamp = snap.Stamp
		maxEpoch = snap.Epoch
		replayFrom = snap.SegIndex
	}

	segs, err := listSegments(fs, dir)
	if err != nil {
		return info, 0, 0, err
	}
	maxSeg := 0
	if n := len(segs); n > 0 {
		maxSeg = segs[n-1]
	}
	var replay []int
	for _, seg := range segs {
		if seg >= replayFrom {
			replay = append(replay, seg)
		}
	}
	if len(replay) > 0 && replay[0] != replayFrom && snap != nil {
		return info, 0, 0, fmt.Errorf("durable: WAL gap: snapshot needs segment %d, oldest present is %d", replayFrom, replay[0])
	}
	for i, seg := range replay {
		if i > 0 && replay[i-1] != seg-1 {
			return info, 0, 0, fmt.Errorf("durable: WAL gap: segment %d follows %d", seg, replay[i-1])
		}
		data, err := fs.ReadFile(filepath.Join(dir, segName(seg)))
		if err != nil {
			return info, 0, 0, err
		}
		info.Segments++
		off := 0
		for off < len(data) {
			rec, n, err := decodeRecord(data[off:])
			if err != nil {
				// A short or corrupt trailer is a torn crash tail — the clean
				// end of a generation's log — on the newest segment, or on
				// the last segment of an earlier generation that crashed and
				// was reopened without a checkpoint pruning it since.
				// Anywhere else it is real corruption.
				ok := seg == maxSeg
				if !ok && i+1 < len(replay) && replay[i+1] == seg+1 {
					var rerr error
					if ok, rerr = startsGeneration(fs, dir, seg+1, seg+1 == maxSeg, maxEpoch); rerr != nil {
						return info, 0, 0, rerr
					}
				}
				if !ok {
					return info, 0, 0, fmt.Errorf("durable: segment %d offset %d: %w", seg, off, err)
				}
				info.TornTail = true
				break
			}
			off += n
			info.Records++
			if rec.Epoch > maxEpoch {
				maxEpoch = rec.Epoch
			}
			switch rec.Kind {
			case kindEpoch:
			case kindCommit:
				if snap != nil && rec.Stamp <= snap.Stamp {
					continue // inside the snapshot's version cut
				}
				for _, wr := range rec.Writes {
					if err := applyWrite(heap, wr.Ref, wr.Slot, wr.Val, false, nil); err != nil {
						return info, 0, 0, fmt.Errorf("durable: segment %d: %w", seg, err)
					}
				}
				info.Txns = append(info.Txns, TxnStamp{Epoch: rec.Epoch, TxnID: rec.TxnID, Stamp: rec.Stamp})
				if rec.Stamp > info.MaxStamp {
					info.MaxStamp = rec.Stamp
				}
			}
		}
	}
	return info, maxEpoch, maxSeg, nil
}

// startsGeneration reports whether segment seg is where a reopen after a
// crash started logging: Open puts every generation in a fresh segment whose
// first record is its epoch, above every epoch logged before. Then the
// segment before it was the crashed generation's last, and a torn trailer
// there is that crash's tail. A newest segment holding no complete record
// is the same reopen cut down before its epoch record reached the disk.
func startsGeneration(fs vfs.FS, dir string, seg int, newest bool, maxEpoch uint64) (bool, error) {
	data, err := fs.ReadFile(filepath.Join(dir, segName(seg)))
	if err != nil {
		return false, err
	}
	rec, _, err := decodeRecord(data)
	if err != nil {
		return newest, nil
	}
	return rec.Kind == kindEpoch && rec.Epoch > maxEpoch, nil
}

// applyWrite restores recovered values into the setup-built heap, checking
// that the referenced object exists and is wide enough. bulk selects
// whole-object restore (snapshot) vs single slot (WAL redo). ref is compared
// unsigned: a hostile one at or above 2^63 must not wrap into range.
func applyWrite(heap *objmodel.Heap, ref objmodel.Ref, slot int, val uint64, bulk bool, vals []uint64) error {
	if ref == objmodel.Null || uint64(ref) > uint64(heap.Len()) {
		return fmt.Errorf("object %d not in setup heap (%d objects) — setup not deterministic?", ref, heap.Len())
	}
	o := heap.Get(ref)
	if bulk {
		if len(vals) != len(o.Slots) {
			return fmt.Errorf("object %d has %d slots, image has %d — setup not deterministic?", ref, len(o.Slots), len(vals))
		}
		for i, v := range vals {
			o.StoreSlot(i, v)
		}
		return nil
	}
	if slot < 0 || slot >= len(o.Slots) {
		return fmt.Errorf("object %d slot %d out of range (%d slots)", ref, slot, len(o.Slots))
	}
	o.StoreSlot(slot, val)
	return nil
}

// Runtime returns the driver-facing runtime. Every transaction it runs on
// the store's heap is durable, whether through it or through Atomic.
func (s *Store) Runtime() stmapi.Runtime { return s.rt }

// Heap returns the managed heap.
func (s *Store) Heap() *objmodel.Heap { return s.heap }

// Recovery reports what recovery-on-open found.
func (s *Store) Recovery() RecoveryInfo { return s.recovery }

// Epoch returns this process generation's epoch.
func (s *Store) Epoch() uint64 { return s.epoch }

// Atomic runs body as a durable transaction: when it returns nil the
// commit's redo record has been fsynced.
func (s *Store) Atomic(body func(stmapi.Txn) error) error { return s.rt.Atomic(body) }

// AppendRedo implements stmapi.CommitSink: called by the runtime at the
// commit point with the transaction's redo image.
func (s *Store) AppendRedo(txnID, stamp uint64, writes []stmapi.RedoWrite) (uint64, error) {
	return s.wal.Append(&record{Kind: kindCommit, Epoch: s.epoch, TxnID: txnID, Stamp: stamp, Writes: writes})
}

// WaitDurable implements stmapi.CommitSink: the group-commit barrier.
func (s *Store) WaitDurable(seq uint64) error { return s.wal.Wait(seq) }

// Checkpoint writes a heap snapshot that is a version cut, and prunes the
// WAL segments it covers. The snapshot holds exactly the commits stamped at
// or below its Stamp, and every commit stamped above it has its redo record
// in a segment at or after its SegIndex; recovery replays those segments
// and skips the records at or below Stamp. One protocol on every runtime:
// rotate, copy the heap in one irrevocable transaction (copyHeap), write
// the snapshot.
func (s *Store) Checkpoint() error {
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	seg, err := s.wal.rotate()
	if err != nil {
		return err
	}
	snap, err := s.copyHeap(seg)
	if err != nil {
		return err
	}
	return s.writeCheckpoint(snap)
}

// copyHeap reads every object through one irrevocable transaction, once
// the WAL has rotated to segment seg, and stamps the image with the commit
// clock read after the last read (DESIGN.md §14.3). That is a version cut:
// on mvstm the switch drained the commit gate and no writer enters it while
// the token is held, so the clock stands still; on eager and lazy the copy
// holds every record it read until it commits, so when it reads the clock
// no commit holds a record. A commit stamped at or below the stamp drew it
// holding its write set, before the copy took any of it, and released
// after its redo append: the copy holds all of it. A commit stamped above
// drew its stamp later, after the rotation, and appends to seg or later.
func (s *Store) copyHeap(seg int) (*snapshot, error) {
	snap := &snapshot{Epoch: s.epoch, SegIndex: seg}
	err := s.rt.AtomicIrrevocable(func(tx stmapi.Txn) error {
		n := s.heap.Len()
		snap.Objs = make([]objImage, 0, n)
		for i := 1; i <= n; i++ {
			o := s.heap.Get(objmodel.Ref(i))
			vals := make([]uint64, len(o.Slots)) //stmvet:ignore nakedaccess -- slot count only, fixed at allocation
			for j := range vals {
				vals[j] = tx.Read(o, j)
			}
			snap.Objs = append(snap.Objs, objImage{Ref: o.Ref(), Vals: vals})
		}
		snap.Stamp = s.heap.Clock().Load()
		return nil
	})
	return snap, err
}

// writeCheckpoint makes snap durable, then prunes what it covers.
func (s *Store) writeCheckpoint(snap *snapshot) error {
	if err := writeSnapshot(s.fs, s.dir, s.inj, snap); err != nil {
		return err
	}
	s.snapshots.Add(1)
	s.lastSnapNs.Store(time.Now().UnixNano())
	s.prune(snap.SegIndex)
	return nil
}

// prune removes WAL segments fully covered by the newest snapshot (index <
// keepFrom) and snapshots older than it. Best-effort: a failed remove only
// costs disk.
func (s *Store) prune(keepFrom int) {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	removed := false
	for _, name := range names {
		if seg, ok := parseSegName(name); ok && seg < keepFrom {
			if s.fs.Remove(filepath.Join(s.dir, name)) == nil {
				removed = true
			}
		}
		if seg, stamp, ok := parseSnapName(name); ok && (seg < keepFrom || (seg == keepFrom && stamp < s.newestSnapStamp(keepFrom, names))) {
			if s.fs.Remove(filepath.Join(s.dir, name)) == nil {
				removed = true
			}
		}
	}
	if removed {
		s.fs.SyncDir(s.dir)
	}
}

// newestSnapStamp returns the highest snapshot stamp at segment index seg.
func (s *Store) newestSnapStamp(seg int, names []string) uint64 {
	best := uint64(0)
	for _, name := range names {
		if g, stamp, ok := parseSnapName(name); ok && g == seg && stamp > best {
			best = stamp
		}
	}
	return best
}

func (s *Store) checkpointLoop(every time.Duration) {
	defer close(s.ckDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.ckStop:
			return
		case <-t.C:
			s.Checkpoint()
		}
	}
}

// Durability snapshots the store's counters.
func (s *Store) Durability() DurabilitySnapshot {
	d := DurabilitySnapshot{
		Epoch:            s.epoch,
		WALAppends:       s.wal.appends.Load(),
		Fsyncs:           s.wal.fsyncs.Load(),
		GroupCommitBatch: s.wal.batchMax.Load(),
		Rotations:        s.wal.rotates.Load(),
		Snapshots:        s.snapshots.Load(),
		RecoveryReplays:  int64(s.recovery.Records),
	}
	if n := s.wal.batchN.Load(); n > 0 {
		d.GroupCommitMean = float64(s.wal.batchSum.Load()) / float64(n)
	}
	if ns := s.lastSnapNs.Load(); ns > 0 {
		d.SnapshotAgeNs = time.Now().UnixNano() - ns
	}
	return d
}

// Close shuts the store down cleanly: detach the sink, stop the
// checkpointer, flush and close the WAL.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if drt, ok := s.rt.(stmapi.DurableRuntime); ok {
		drt.SetCommitSink(nil)
	}
	if s.ckStop != nil {
		close(s.ckStop)
		<-s.ckDone
	}
	return s.wal.Close(true)
}

// Abandon drops the store without flushing — the in-process crash
// simulation used with vfs.FaultFS: stop background goroutines, leave
// unflushed state to die with the FS's Crash.
func (s *Store) Abandon() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	if drt, ok := s.rt.(stmapi.DurableRuntime); ok {
		drt.SetCommitSink(nil)
	}
	if s.ckStop != nil {
		close(s.ckStop)
		<-s.ckDone
	}
	s.wal.Close(false)
}
