package durable

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stmapi"
)

// TestCheckpointSeesOnlyCommitted: a body run through the store's runtime
// writes account 0 (+50) and blocks; a checkpoint starts; the body is
// released and aborts. Then the disk crashes and the store reopens. The
// snapshot may hold only committed state, so the bank sums to 800. A
// checkpoint that copied raw slots read eager's in-place write, the paper's
// speculative dirty read, and recovered 850.
func TestCheckpointSeesOnlyCommitted(t *testing.T) {
	for _, rt := range stmapi.Runtimes() {
		t.Run(rt, func(t *testing.T) {
			fs := NewTestFS()
			s, arr := openBank(t, fs, "/d", rt, nil)
			errAbandon := errors.New("abandoned")
			wrote, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			body := make(chan error, 1)
			go func() {
				body <- s.Runtime().Atomic(func(tx stmapi.Txn) error {
					tx.Write(arr, 0, tx.Read(arr, 0)+50)
					once.Do(func() { close(wrote) })
					<-release
					return errAbandon
				})
			}()
			<-wrote

			// Release the body once the checkpoint holds the irrevocable
			// token (eager's copy then waits for the body's record) or has
			// finished.
			ck := make(chan error, 1)
			go func() { ck <- s.Checkpoint() }()
			holder := s.rt.(interface{ IrrevocableHolder() uint64 })
			var ckErr error
			finished := false
			for deadline := time.Now().Add(5 * time.Second); !finished && holder.IrrevocableHolder() == 0; {
				select {
				case ckErr = <-ck:
					finished = true
				case <-time.After(time.Millisecond):
					if time.Now().After(deadline) {
						t.Fatal("the checkpoint neither took the irrevocable token nor finished")
					}
				}
			}
			close(release)
			if err := <-body; !errors.Is(err, errAbandon) {
				t.Fatalf("body returned %v, want its own error", err)
			}
			if !finished {
				ckErr = <-ck
			}
			if ckErr != nil {
				t.Fatal(ckErr)
			}
			s.Abandon()
			fs.Crash()

			s2, arr2 := openBank(t, fs, "/d", rt, func(o *Options) { o.NoOpenCheckpoint = true })
			defer s2.Close()
			if got := bankSum(arr2); got != bankAccounts*bankInit {
				t.Errorf("sum after recovery = %d, want %d (account 0 = %d)", got, bankAccounts*bankInit, arr2.LoadSlot(0))
			}
		})
	}
}

// TestLiveCheckpointIsAVersionCut takes the checkpoint's steps by hand on
// every runtime, in two rounds with a crash after each.
//
// Round one: a checkpoint whose heap copy sees a commit whose redo record
// is still in the WAL's in-memory batch, and a process that dies before the
// batch is written. The WAL rotates; C1 (0→1) commits and is acked; the
// flusher is held (wal.wmu); C2 (0→2) commits in memory and waits for its
// fsync; the heap is copied and the snapshot written. The snapshot holds C1
// and C2 and its stamp covers both, so recovery replays neither and the
// bank reads 98/101/101 with the sum conserved. A snapshot stamped below
// them had C1's record replayed over it: its absolute values rewound
// account 0 past C2's debit and recovery read 99/101/101, a sum of 801.
//
// Round two, on the recovered store: an acked transfer after the rotation,
// one after the heap copy and one after the snapshot write. The first is
// inside the snapshot; recovery replays exactly the other two.
func TestLiveCheckpointIsAVersionCut(t *testing.T) {
	for _, rt := range stmapi.Runtimes() {
		t.Run(rt, func(t *testing.T) {
			fs := NewTestFS()
			s, arr := openBank(t, fs, "/d", rt, nil)

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
			snap, err := s.copyHeap(seg)
			if err == nil {
				err = s.writeCheckpoint(snap)
			}
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

			noCheckpoint := func(o *Options) { o.NoOpenCheckpoint = true }
			s2, arr2 := openBank(t, fs, "/d", rt, noCheckpoint)
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

			stamps := trackStamps(s2)
			var acked []uint64
			ack := func(to int) {
				id, err := transfer(s2, arr2, 3, to)
				if err != nil {
					t.Fatal(err)
				}
				acked = append(acked, id)
			}
			s2.ckMu.Lock()
			if seg, err = s2.wal.rotate(); err != nil {
				t.Fatal(err)
			}
			ack(4)
			if snap, err = s2.copyHeap(seg); err != nil {
				t.Fatal(err)
			}
			ack(5)
			if err := s2.writeCheckpoint(snap); err != nil {
				t.Fatal(err)
			}
			ack(6)
			s2.ckMu.Unlock()
			epoch := s2.Epoch()
			s2.Abandon()
			fs.Crash()

			s3, arr3 := openBank(t, fs, "/d", rt, noCheckpoint)
			defer s3.Close()
			info = s3.Recovery()
			if got := bankSum(arr3); got != bankAccounts*bankInit {
				t.Errorf("round two: sum after recovery = %d, want %d", got, bankAccounts*bankInit)
			}
			for i, want := range map[int]uint64{3: bankInit - 3, 4: bankInit + 1, 5: bankInit + 1, 6: bankInit + 1} {
				if got := arr3.LoadSlot(i); got != want {
					t.Errorf("round two: account %d = %d after recovery, want %d", i, got, want)
				}
			}
			replayed := make(map[TxnStamp]bool)
			for _, txn := range info.Txns {
				replayed[txn] = true
			}
			for i, id := range acked {
				stamp, ok := stamps.stamp(id)
				if !ok {
					t.Fatalf("round two: acked txn %d logged no stamp", id)
				}
				inSnap, inTail := stamp <= info.SnapshotStamp, replayed[TxnStamp{Epoch: epoch, TxnID: id, Stamp: stamp}]
				if inSnap != (i == 0) || inTail != (i > 0) {
					t.Errorf("round two: ack %d (stamp %d): in snapshot %v, replayed %v; snapshot stamp %d, replayed %v",
						i, stamp, inSnap, inTail, info.SnapshotStamp, info.Txns)
				}
			}
		})
	}
}

// TestLiveCheckpointUnderLoad checkpoints repeatedly while four writers
// transfer through the store, each checkpoint once the writers have acked
// ten more transfers, then crashes, recovers and checks that the sum is
// conserved and every acked transfer is in the snapshot or the replayed
// tail: no checkpoint may capture a half-applied or uncommitted write, nor
// cut an acked commit out of both.
func TestLiveCheckpointUnderLoad(t *testing.T) {
	for _, rt := range stmapi.Runtimes() {
		t.Run(rt, func(t *testing.T) {
			fs := NewTestFS()
			s, arr := openBank(t, fs, "/d", rt, nil)
			stamps := trackStamps(s)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			acked := make([][]uint64, 4)
			var commits atomic.Int64
			for g := range acked {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						id, err := transfer(s, arr, (g+i)%bankAccounts, (g+i+1)%bankAccounts)
						if err != nil {
							t.Error(err)
							return
						}
						acked[g] = append(acked[g], id)
						commits.Add(1)
					}
				}(g)
			}
			deadline := time.Now().Add(10 * time.Second)
			for i := int64(1); i <= 5; i++ {
				for commits.Load() < 10*i && time.Now().Before(deadline) {
					time.Sleep(100 * time.Microsecond)
				}
				if err := s.Checkpoint(); err != nil {
					t.Errorf("checkpoint %d: %v", i, err)
				}
			}
			if n := commits.Load(); n < 50 {
				t.Errorf("the writers acked %d transfers in 10s, want at least 50 between the checkpoints", n)
			}
			close(stop)
			wg.Wait()
			epoch := s.Epoch()
			s.Abandon()
			fs.Crash()

			s2, arr2 := openBank(t, fs, "/d", rt, func(o *Options) { o.NoOpenCheckpoint = true })
			defer s2.Close()
			if got := bankSum(arr2); got != bankAccounts*bankInit {
				t.Fatalf("sum = %d after checkpoint-under-load crash recovery, want %d", got, bankAccounts*bankInit)
			}
			info := s2.Recovery()
			replayed := make(map[TxnStamp]bool)
			for _, txn := range info.Txns {
				replayed[txn] = true
			}
			for _, ids := range acked {
				for _, id := range ids {
					stamp, ok := stamps.stamp(id)
					if !ok {
						t.Fatalf("acked txn %d logged no stamp", id)
					}
					if stamp > info.SnapshotStamp && !replayed[TxnStamp{Epoch: epoch, TxnID: id, Stamp: stamp}] {
						t.Fatalf("acked txn %d (stamp %d) lost: snapshot stamp %d, %d replayed",
							id, stamp, info.SnapshotStamp, len(info.Txns))
					}
				}
			}
		})
	}
}
