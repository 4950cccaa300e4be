package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/vfs"

	_ "repro/internal/lazystm"
	_ "repro/internal/mvstm"
	_ "repro/internal/stm"
)

func TestRecordRoundTrip(t *testing.T) {
	in := record{
		Kind: kindCommit, Epoch: 3, TxnID: 42, Stamp: 97,
		Writes: []stmapi.RedoWrite{{Ref: 1, Slot: 0, Val: 11}, {Ref: 2, Slot: 5, Val: ^uint64(0)}},
	}
	buf := appendRecord(nil, &in)
	buf = appendRecord(buf, &record{Kind: kindEpoch, Epoch: 4})

	out, n, err := decodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || out.Epoch != in.Epoch || out.TxnID != in.TxnID || out.Stamp != in.Stamp || len(out.Writes) != 2 {
		t.Fatalf("round trip: %+v", out)
	}
	if out.Writes[1] != in.Writes[1] {
		t.Fatalf("write round trip: %+v", out.Writes[1])
	}
	ep, m, err := decodeRecord(buf[n:])
	if err != nil || ep.Kind != kindEpoch || ep.Epoch != 4 {
		t.Fatalf("epoch record: %+v %v", ep, err)
	}

	// Every truncation of a record is a torn tail, not corruption.
	for cut := 1; cut < m; cut++ {
		if _, _, err := decodeRecord(buf[n : n+m-cut]); err != errShortRecord {
			t.Fatalf("cut %d: err = %v, want errShortRecord", cut, err)
		}
	}
	// A flipped payload bit is corruption.
	bad := append([]byte(nil), buf[:n]...)
	bad[recordHeaderLen+3] ^= 1
	if _, _, err := decodeRecord(bad); err == nil {
		t.Fatal("bit flip not detected")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	in := &snapshot{
		Epoch: 2, Stamp: 55, SegIndex: 3,
		Objs: []objImage{{Ref: 1, Vals: []uint64{9, 8}}, {Ref: 2, Vals: []uint64{7}}},
	}
	out, err := decodeSnapshot(encodeSnapshot(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Epoch != 2 || out.Stamp != 55 || out.SegIndex != 3 || len(out.Objs) != 2 || out.Objs[0].Vals[1] != 8 {
		t.Fatalf("round trip: %+v", out)
	}
	seg, stamp, ok := parseSnapName(snapName(3, 55))
	if !ok || seg != 3 || stamp != 55 {
		t.Fatalf("name round trip: %d %d %v", seg, stamp, ok)
	}
}

// NewTestFS returns the honest in-memory FS.
func NewTestFS() *vfs.FaultFS { return vfs.NewFaultFS(1, vfs.Mode{}) }

// The canonical test heap: one 8-account array, 100 units each.
const bankAccounts = 8
const bankInit = 100

func openBank(t *testing.T, fs vfs.FS, dir, runtime string, opts func(*Options)) (*Store, *objmodel.Object) {
	t.Helper()
	var arr *objmodel.Object
	o := Options{Dir: dir, FS: fs, Runtime: runtime}
	if opts != nil {
		opts(&o)
	}
	s, err := Open(o, func(h *objmodel.Heap) error {
		arr = h.NewArray(bankAccounts, false)
		for i := 0; i < bankAccounts; i++ {
			arr.StoreSlot(i, bankInit)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Open(%s): %v", runtime, err)
	}
	return s, arr
}

func bankSum(arr *objmodel.Object) (sum uint64) {
	for i := 0; i < bankAccounts; i++ {
		sum += arr.LoadSlot(i)
	}
	return sum
}

// stampSink is a commit sink installed over a store that records the commit
// stamp of every redo record it forwards, so a test can tell which acked
// commits a snapshot covers and which recovery must replay.
type stampSink struct {
	stmapi.CommitSink
	mu     sync.Mutex
	stamps map[uint64]uint64 // txnID → stamp
}

func trackStamps(s *Store) *stampSink {
	k := &stampSink{CommitSink: s, stamps: make(map[uint64]uint64)}
	s.rt.(stmapi.DurableRuntime).SetCommitSink(k)
	return k
}

func (k *stampSink) AppendRedo(txnID, stamp uint64, writes []stmapi.RedoWrite) (uint64, error) {
	k.mu.Lock()
	k.stamps[txnID] = stamp
	k.mu.Unlock()
	return k.CommitSink.AppendRedo(txnID, stamp, writes)
}

// stamp returns the commit stamp logged for txnID.
func (k *stampSink) stamp(txnID uint64) (uint64, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	st, ok := k.stamps[txnID]
	return st, ok
}

func transfer(s *Store, arr *objmodel.Object, from, to int) (txnID uint64, err error) {
	err = s.Atomic(func(tx stmapi.Txn) error {
		txnID = tx.ID()
		a := tx.Read(arr, from)
		b := tx.Read(arr, to)
		tx.Write(arr, from, a-1)
		tx.Write(arr, to, b+1)
		return nil
	})
	return txnID, err
}

// TestStoreCrashRecovery runs acked transfers on each runtime, crashes the
// in-memory disk, reopens, and checks conservation plus that every acked
// commit was recovered.
func TestStoreCrashRecovery(t *testing.T) {
	for _, rt := range []string{"eager", "lazy", "mvstm"} {
		t.Run(rt, func(t *testing.T) {
			fs := NewTestFS()
			s, arr := openBank(t, fs, "/d", rt, nil)
			stamps := trackStamps(s)
			type ack struct{ epoch, id, stamp uint64 }
			var acks []ack
			for i := 0; i < 40; i++ {
				id, err := transfer(s, arr, i%bankAccounts, (i+3)%bankAccounts)
				if err != nil {
					t.Fatal(err)
				}
				stamp, ok := stamps.stamp(id)
				if !ok {
					t.Fatalf("txn %d committed without a stamp", id)
				}
				acks = append(acks, ack{s.Epoch(), id, stamp})
			}
			prevEpoch := s.Epoch()
			s.Abandon()
			fs.Crash()

			s2, arr2 := openBank(t, fs, "/d", rt, func(o *Options) { o.NoOpenCheckpoint = true })
			defer s2.Close()
			if got := bankSum(arr2); got != bankAccounts*bankInit {
				t.Fatalf("sum after recovery = %d, want %d", got, bankAccounts*bankInit)
			}
			if s2.Epoch() != prevEpoch+1 {
				t.Fatalf("epoch = %d, want %d", s2.Epoch(), prevEpoch+1)
			}
			info := s2.Recovery()
			replayed := make(map[[2]uint64]bool)
			for _, txn := range info.Txns {
				replayed[[2]uint64{txn.Epoch, txn.TxnID}] = true
			}
			for _, a := range acks {
				if a.stamp <= info.SnapshotStamp {
					continue // inside the snapshot image
				}
				if !replayed[[2]uint64{a.epoch, a.id}] {
					t.Fatalf("acked commit (epoch %d, txn %d, stamp %d) lost: snapshotStamp %d, %d replayed",
						a.epoch, a.id, a.stamp, info.SnapshotStamp, len(info.Txns))
				}
			}
			if info.MaxStamp < acks[len(acks)-1].stamp {
				t.Fatalf("MaxStamp %d < last acked stamp %d", info.MaxStamp, acks[len(acks)-1].stamp)
			}
		})
	}
}

// TestRecoveryReplaysWALTail is the pinned seeded test required by the
// acceptance criteria: with open-time checkpoints disabled, every commit
// lives only in the WAL tail, and recovery must replay a non-empty tail.
func TestRecoveryReplaysWALTail(t *testing.T) {
	fs := vfs.NewFaultFS(42, vfs.Mode{})
	s, arr := openBank(t, fs, "/d", "eager", func(o *Options) { o.NoOpenCheckpoint = true })
	const txns = 17
	for i := 0; i < txns; i++ {
		if _, err := transfer(s, arr, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	s.Abandon()
	fs.Crash()

	s2, arr2 := openBank(t, fs, "/d", "eager", func(o *Options) { o.NoOpenCheckpoint = true })
	defer s2.Close()
	info := s2.Recovery()
	if info.Records == 0 || len(info.Txns) != txns {
		t.Fatalf("replayed %d records, %d txns; want a non-empty tail with %d txns", info.Records, len(info.Txns), txns)
	}
	if info.SnapshotStamp != 0 {
		t.Fatalf("unexpected snapshot (stamp %d) — tail replay not exercised", info.SnapshotStamp)
	}
	if got := arr2.LoadSlot(0); got != bankInit-txns {
		t.Fatalf("slot 0 = %d, want %d", got, bankInit-txns)
	}
	if got := arr2.LoadSlot(1); got != bankInit+txns {
		t.Fatalf("slot 1 = %d, want %d", got, bankInit+txns)
	}
	if s2.Durability().RecoveryReplays == 0 {
		t.Fatal("RecoveryReplays counter not populated")
	}
}

// TestFsyncLieLosesAckedCommits proves the store can DETECT a lying disk:
// under Mode.FsyncLie acked commits vanish on crash, which the recovery
// invariants (checked here directly, and by the harness in
// internal/durability) flag as a breach.
func TestFsyncLieLosesAckedCommits(t *testing.T) {
	fs := vfs.NewFaultFS(7, vfs.Mode{FsyncLie: true})
	s, arr := openBank(t, fs, "/d", "eager", func(o *Options) { o.NoOpenCheckpoint = true })
	stamps := trackStamps(s)
	var lastStamp uint64
	for i := 0; i < 10; i++ {
		id, err := transfer(s, arr, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if st, ok := stamps.stamp(id); ok {
			lastStamp = st
		}
	}
	s.Abandon()
	fs.Crash()

	s2, _ := openBank(t, fs, "/d", "eager", func(o *Options) { o.NoOpenCheckpoint = true })
	defer s2.Close()
	info := s2.Recovery()
	if info.MaxStamp >= lastStamp {
		t.Fatalf("acked stamp %d survived a lying fsync (MaxStamp %d) — breach not observable", lastStamp, info.MaxStamp)
	}
}

// TestTornTailEndsReplay corrupts the tail of the live segment the way a
// torn sector write would and checks recovery stops cleanly at the tear.
func TestTornTailEndsReplay(t *testing.T) {
	fs := NewTestFS()
	s, arr := openBank(t, fs, "/d", "lazy", func(o *Options) { o.NoOpenCheckpoint = true })
	for i := 0; i < 5; i++ {
		if _, err := transfer(s, arr, 2, 3); err != nil {
			t.Fatal(err)
		}
	}
	s.Abandon()
	fs.Crash()

	tearLastRecord(t, fs, newestSegment(t, fs))

	s2, arr2 := openBank(t, fs, "/d", "lazy", func(o *Options) { o.NoOpenCheckpoint = true })
	defer s2.Close()
	info := s2.Recovery()
	if !info.TornTail {
		t.Fatal("torn tail not reported")
	}
	if len(info.Txns) != 4 {
		t.Fatalf("replayed %d txns past a tear after 5 commits, want 4", len(info.Txns))
	}
	if got := bankSum(arr2); got != bankAccounts*bankInit {
		t.Fatalf("sum = %d after torn-tail recovery", got)
	}
}

// newestSegment returns the path of the highest-numbered WAL segment in /d.
func newestSegment(t *testing.T, fs vfs.FS) string {
	t.Helper()
	segs, err := listSegments(fs, "/d")
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	return filepath.Join("/d", segName(segs[len(segs)-1]))
}

// tearLastRecord truncates the segment at path mid-record, durably: what a
// torn sector write leaves behind.
func tearLastRecord(t *testing.T, fs vfs.FS, path string) {
	t.Helper()
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenFile(path, os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data[:len(data)-7]); err != nil {
		t.Fatal(err)
	}
	f.Sync()
	f.Close()
}

// endsMidRecord reports whether the segment at path ends in a record that
// does not decode.
func endsMidRecord(t *testing.T, fs vfs.FS, path string) bool {
	t.Helper()
	data, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for len(data) > 0 {
		_, n, err := decodeRecord(data)
		if err != nil {
			return true
		}
		data = data[n:]
	}
	return false
}

// TestTornTailBehindGenerationBoundary is the double crash: a generation
// dies with a record half on disk, the store is reopened (fresh segment,
// synced epoch record) and commits, and dies again before any checkpoint
// has pruned the first crash's segment. The torn tail now sits in a segment
// that is not the newest; recovery must still read it as the end of that
// generation's log and reopen to the acked state. How much of the unsynced
// record a crash keeps is the disk's choice (seeded), so the scenario runs
// over several seeds and at least one must leave a real tear.
func TestTornTailBehindGenerationBoundary(t *testing.T) {
	noCheckpoint := func(o *Options) { o.NoOpenCheckpoint = true }
	tears := 0
	for seed := uint64(1); seed <= 8; seed++ {
		fs := vfs.NewFaultFS(seed, vfs.Mode{TornWrites: true})
		s, arr := openBank(t, fs, "/d", "mvstm", noCheckpoint)
		for i := 0; i < 5; i++ {
			if _, err := transfer(s, arr, i, i+1); err != nil {
				t.Fatal(err)
			}
		}
		epoch := s.Epoch()
		s.Abandon()
		// The flusher had written one more commit but not fsynced it when
		// the process died: never acked, so recovery may drop it.
		first := newestSegment(t, fs)
		f, err := fs.OpenFile(first, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		unacked := record{Kind: kindCommit, Epoch: epoch, TxnID: 1 << 40, Stamp: 1 << 40,
			Writes: []stmapi.RedoWrite{{Ref: arr.Ref(), Slot: 0, Val: 1}, {Ref: arr.Ref(), Slot: 1, Val: 2*bankInit - 1}}}
		if _, err := f.Write(appendRecord(nil, &unacked)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		fs.Crash()
		torn := endsMidRecord(t, fs, first)

		s2, arr2 := openBank(t, fs, "/d", "mvstm", noCheckpoint)
		for i := 0; i < 3; i++ {
			if _, err := transfer(s2, arr2, 7, 6); err != nil {
				t.Fatal(err)
			}
		}
		var acked [bankAccounts]uint64
		for i := range acked {
			acked[i] = arr2.LoadSlot(i)
		}
		s2.Abandon()
		fs.Crash()
		if newestSegment(t, fs) == first {
			t.Fatal("the reopen did not start a new segment")
		}

		s3, arr3 := openBank(t, fs, "/d", "mvstm", noCheckpoint)
		for i, want := range acked {
			if got := arr3.LoadSlot(i); got != want {
				t.Errorf("seed %d: account %d = %d after the second recovery, want the acked %d", seed, i, got, want)
			}
		}
		if torn {
			tears++
			if !s3.Recovery().TornTail {
				t.Errorf("seed %d: torn tail behind the boundary not reported", seed)
			}
		}
		s3.Close()
	}
	if tears == 0 {
		t.Fatal("no seed left a torn record behind the generation boundary: the case under test never ran")
	}
}

// TestTornMiddleSegmentStillCorruption: a segment torn mid-record whose
// successor continues the same generation (a rotation, so it does not begin
// with an epoch record) lost records from the middle of the log. That stays
// an error.
func TestTornMiddleSegmentStillCorruption(t *testing.T) {
	fs := NewTestFS()
	s, arr := openBank(t, fs, "/d", "lazy", func(o *Options) { o.NoOpenCheckpoint = true })
	for i := 0; i < 3; i++ {
		if _, err := transfer(s, arr, 2, 3); err != nil {
			t.Fatal(err)
		}
	}
	middle := newestSegment(t, fs)
	if _, err := s.wal.rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := transfer(s, arr, 2, 3); err != nil {
		t.Fatal(err)
	}
	s.Abandon()
	fs.Crash()

	tearLastRecord(t, fs, middle)

	s2, err := Open(Options{Dir: "/d", FS: fs, Runtime: "lazy", NoOpenCheckpoint: true}, func(h *objmodel.Heap) error {
		h.NewArray(bankAccounts, false)
		return nil
	})
	if err == nil {
		s2.Close()
		t.Fatal("a torn segment in the middle of a generation was accepted")
	}
	if !errors.Is(err, errShortRecord) {
		t.Fatalf("err = %v, want the torn record's decode error", err)
	}
}

// TestCheckpointCoversAndPrunes checkpoints mid-stream and checks pruning
// plus recovery from snapshot + shorter tail, on every runtime.
func TestCheckpointCoversAndPrunes(t *testing.T) {
	for _, rt := range stmapi.Runtimes() {
		t.Run(rt, func(t *testing.T) {
			fs := NewTestFS()
			s, arr := openBank(t, fs, "/d", rt, func(o *Options) { o.NoOpenCheckpoint = true })
			for i := 0; i < 10; i++ {
				if _, err := transfer(s, arr, 0, 4); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			for i := 0; i < 6; i++ {
				if _, err := transfer(s, arr, 1, 5); err != nil {
					t.Fatal(err)
				}
			}
			segs, _ := listSegments(fs, "/d")
			if len(segs) != 1 {
				t.Fatalf("segments after checkpoint = %v, want just the live one", segs)
			}
			d := s.Durability()
			if d.Snapshots != 1 || d.Rotations != 1 {
				t.Fatalf("snapshots=%d rotations=%d", d.Snapshots, d.Rotations)
			}
			s.Abandon()
			fs.Crash()

			s2, arr2 := openBank(t, fs, "/d", rt, func(o *Options) { o.NoOpenCheckpoint = true })
			defer s2.Close()
			info := s2.Recovery()
			if info.SnapshotStamp == 0 {
				t.Fatal("no snapshot used in recovery")
			}
			if len(info.Txns) != 6 {
				t.Fatalf("replayed %d txns, want only the 6 post-checkpoint ones", len(info.Txns))
			}
			if got := arr2.LoadSlot(4); got != bankInit+10 {
				t.Fatalf("slot 4 = %d, want %d (snapshot content)", got, bankInit+10)
			}
			if got := arr2.LoadSlot(5); got != bankInit+6 {
				t.Fatalf("slot 5 = %d, want %d (tail content)", got, bankInit+6)
			}
		})
	}
}

// TestOSFSStore runs the store end-to-end on the real file system.
func TestOSFSStore(t *testing.T) {
	dir := t.TempDir()
	s, arr := openBank(t, vfs.OS{}, dir, "eager", nil)
	for i := 0; i < 8; i++ {
		if _, err := transfer(s, arr, 0, 7); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, arr2 := openBank(t, vfs.OS{}, dir, "eager", func(o *Options) { o.NoOpenCheckpoint = true })
	defer s2.Close()
	if got := arr2.LoadSlot(7); got != bankInit+8 {
		t.Fatalf("slot 7 = %d, want %d", got, bankInit+8)
	}
}

// TestNonDeterministicSetupRejected: recovered images referencing objects
// the setup did not create must fail loudly, not corrupt silently.
func TestNonDeterministicSetupRejected(t *testing.T) {
	fs := NewTestFS()
	s, arr := openBank(t, fs, "/d", "eager", func(o *Options) { o.NoOpenCheckpoint = true })
	if _, err := transfer(s, arr, 0, 1); err != nil {
		t.Fatal(err)
	}
	s.Close()

	_, err := Open(Options{Dir: "/d", FS: fs, Runtime: "eager", NoOpenCheckpoint: true},
		func(h *objmodel.Heap) error { return nil }) // empty heap: refs now dangle
	if err == nil {
		t.Fatal("recovery into a mismatched heap succeeded")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("setup")) {
		t.Fatalf("error %q does not point at setup determinism", err)
	}
}

// TestEpochsMonotone: every open stamps a fresh epoch, strictly increasing
// across crashes and clean closes alike.
func TestEpochsMonotone(t *testing.T) {
	fs := NewTestFS()
	var last uint64
	for i := 0; i < 4; i++ {
		s, arr := openBank(t, fs, "/d", "lazy", nil)
		if _, err := transfer(s, arr, 0, 1); err != nil {
			t.Fatal(err)
		}
		if s.Epoch() <= last {
			t.Fatalf("open %d: epoch %d not above %d", i, s.Epoch(), last)
		}
		last = s.Epoch()
		if i%2 == 0 {
			s.Close()
		} else {
			s.Abandon()
			fs.Crash()
		}
	}
}
