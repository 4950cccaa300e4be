package durable

import (
	"testing"
	"time"

	"repro/internal/stmapi"
	"repro/internal/vfs"
)

// TestLiveCheckpointIsAVersionCut: a live (mvstm) checkpoint whose heap read
// sees a commit whose redo record is still in the WAL's in-memory batch,
// and a process that dies before the batch is written. The checkpoint's
// steps are taken by hand around two transfers: the WAL rotates; C1 (0→1)
// commits and is acked; the flusher is held (wal.wmu); C2 (0→2) commits in
// memory and waits for its fsync; the heap is read and the snapshot
// written. Then the disk crashes and the store reopens. The snapshot holds
// C1 and C2 and its stamp covers both, so recovery replays neither and the
// bank reads 98/101/101 with the sum conserved. A snapshot stamped below
// them had C1's record replayed over it: its absolute values rewound
// account 0 past C2's debit and recovery read 99/101/101, a sum of 801.
func TestLiveCheckpointIsAVersionCut(t *testing.T) {
	fs := vfs.NewFaultFS(1, vfs.Mode{})
	s, arr := openBank(t, fs, "/d", "mvstm", nil)
	ror := s.rt.(stmapi.ReadOnlyRuntime)

	s.ckMu.Lock()
	seg, err := s.wal.rotate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := transfer(s, arr, 0, 1); err != nil { // C1, acked
		t.Fatal(err)
	}
	s.wal.wmu.Lock() // the flusher writes nothing more
	appended := s.wal.appends.Load()
	c2 := make(chan error, 1)
	go func() {
		_, err := transfer(s, arr, 0, 2) // C2: applied, never durable
		c2 <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); s.wal.appends.Load() == appended; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("C2 never appended its redo record")
		}
	}
	err = s.liveCheckpoint(ror, seg)
	s.ckMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	s.wal.wmu.Unlock() // the batch meets the crashed disk
	if err := <-c2; err == nil {
		t.Fatal("C2 was acked: its redo record reached a crashed disk")
	}
	s.Abandon()

	s2, arr2 := openBank(t, fs, "/d", "mvstm", func(o *Options) { o.NoOpenCheckpoint = true })
	defer s2.Close()
	info := s2.Recovery()
	if got := bankSum(arr2); got != bankAccounts*bankInit {
		t.Errorf("sum after recovery = %d, want %d (snapshot stamp %d, %d commit records replayed)",
			got, bankAccounts*bankInit, info.SnapshotStamp, len(info.Txns))
	}
	for i, want := range []uint64{bankInit - 2, bankInit + 1, bankInit + 1} {
		if got := arr2.LoadSlot(i); got != want {
			t.Errorf("account %d = %d after recovery, want %d", i, got, want)
		}
	}
	if len(info.Txns) != 0 {
		t.Errorf("recovery replayed %v, want nothing: both commits are inside the snapshot", info.Txns)
	}
}
