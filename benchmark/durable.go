package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/durable"
	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/vfs"
)

// durable_bank: transfers between accounts through durable.Store, every commit
// acknowledged only after its fsync. The gated runs use a disk of this
// program's own (steadyDisk): files in memory, and an fsync that always takes
// steadySyncNs. On the build host's real disk, shared with other tenants, ten
// runs minutes apart read 480 to 3150 operations per second, which no bound
// can gate; the real disk is measured by an extra segment of the traced run
// and reported as the tracked vfs.* layer metrics.

const (
	bankAccounts   = 4096
	initialBalance = 1000
	bankAccesses   = 6 // read+write of two accounts and of the worker's counter
)

// bank is an open store over the heap every Open rebuilds the same way: the
// account array is object 1, worker g's acknowledgement counter object 2+g.
type bank struct {
	store    *durable.Store
	accounts *objmodel.Object
	acks     []*objmodel.Object
}

func openBank(opts durable.Options, workers int) (*bank, error) {
	store, err := durable.Open(opts, func(h *objmodel.Heap) error {
		arr := h.NewArray(bankAccounts, false)
		for i := 0; i < bankAccounts; i++ {
			arr.StoreSlot(i, initialBalance)
		}
		cls, err := h.DefineClass(objmodel.ClassSpec{Name: "Acks", Fields: scalarFields(1)})
		for g := 0; g < workers && err == nil; g++ {
			h.NewPublic(cls)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	b := &bank{store: store, accounts: store.Heap().Get(1)}
	for g := 0; g < workers; g++ {
		b.acks = append(b.acks, store.Heap().Get(objmodel.Ref(2+g)))
	}
	return b, nil
}

// transfer returns worker g's operation: move one unit between two random
// accounts and bump the worker's counter, in one durable transaction run
// through atomic. *acked counts the operations that returned nil.
func (b *bank) transfer(g int, rng *splitmix, atomic func(func(stmapi.Txn) error) error, acked *int64) func() error {
	var from, to int
	ack := b.acks[g]
	body := func(tx stmapi.Txn) error {
		tx.Write(b.accounts, from, tx.Read(b.accounts, from)-1)
		tx.Write(b.accounts, to, tx.Read(b.accounts, to)+1)
		tx.Write(ack, 0, tx.Read(ack, 0)+1)
		return nil
	}
	return func() error {
		from = rng.below(bankAccounts)
		to = (from + 1 + rng.below(bankAccounts-1)) % bankAccounts
		err := atomic(body)
		if err == nil {
			*acked++
		}
		return err
	}
}

// verify is the durability check on a recovered store: money is conserved,
// and no acknowledged operation is missing from its worker's counter.
func (b *bank) verify(acked []int64) error {
	var total uint64
	for i := 0; i < bankAccounts; i++ {
		total += b.accounts.LoadSlot(i)
	}
	if total != bankAccounts*initialBalance {
		return fmt.Errorf("recovered accounts total %d, want %d", total, bankAccounts*initialBalance)
	}
	for g, n := range acked {
		if got := b.acks[g].LoadSlot(0); got < uint64(n) {
			return fmt.Errorf("worker %d saw %d operations acknowledged, recovered counter is %d", g, n, got)
		}
	}
	return nil
}

// reopenAndVerify recovers dir on fs and checks the result against acked.
func reopenAndVerify(fs vfs.FS, dir, runtime string, acked []int64) error {
	b, err := openBank(durable.Options{Dir: dir, FS: fs, Runtime: runtime, NoOpenCheckpoint: true}, len(acked))
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer b.store.Close()
	return b.verify(acked)
}

// crashAndVerify kills the file system under an open store, which keeps only
// what was fsynced, and requires recovery to hold every acknowledged
// operation: an acknowledgement issued before its fsync loses its operation
// here.
func (b *bank) crashAndVerify(disk *vfs.FaultFS, runtime string, acked []int64) error {
	disk.Crash()
	b.store.Abandon()
	if err := reopenAndVerify(disk, bankDir, runtime, acked); err != nil {
		return fmt.Errorf("after crash: %w", err)
	}
	return nil
}

// bankDir is where a bank lives on an in-memory file system.
const bankDir = "bank"

// steadySyncNs is what an fsync of the steady disk takes: the median of the
// build host's real disk in its quiet state (351, 397 and 421 us in three of
// six traced runs; README, "The disk under durable_bank", has all six).
const steadySyncNs = 400_000

func runDurable(c config) (*wlResult, error) {
	res := newResult(c, "durable_bank")
	var pool pooled
	var appends, fsyncs, snapshots, walBytes int64
	var runs []*segRun
	for _, rt := range variantNames {
		seg := c.newSegment(rt)
		seg.sampleEvery = 1 // an operation is ~1 ms: time them all
		var disk *vfs.FaultFS
		tfs := &timingFS{} // traced runs only
		b, setupS, err := timeSetup(c.setupReps, 1, func() (*bank, error) {
			disk = vfs.NewFaultFS(c.seed, vfs.Mode{})
			var fs vfs.FS = &steadyDisk{FS: disk, syncNs: steadySyncNs}
			if c.traced {
				tfs.FS, fs = fs, tfs
			}
			return openBank(durable.Options{Dir: bankDir, FS: fs, Runtime: rt, CheckpointEvery: time.Second}, c.workers)
		}, func(b *bank) { b.store.Close() })
		if err != nil {
			return nil, fmt.Errorf("durable_bank/%s: %w", rt, err)
		}
		defer b.store.Abandon() // a no-op once check has run
		res.setupS += setupS
		if c.traced {
			b.store.Runtime().(stmapi.DurableRuntime).SetCommitSink(&timingSink{inner: b.store, seg: seg})
		}
		tfs.reset() // set-up's I/O is not the segment's

		acked := make([]counter, c.workers)
		for g := 0; g < c.workers; g++ {
			w := seg.addWorker(c.seed, b.store.Atomic)
			w.op = b.transfer(g, &w.rng, w.atomic, &acked[g].n)
		}
		runs = append(runs, &segRun{seg: seg, rt: b.store.Runtime(), accesses: bankAccesses,
			collect: func(s segResult, _ stmapi.StatsSnapshot) {
				d := b.store.Durability()
				io, _ := tfs.snapshot()
				pool.add(s)
				appends += d.WALAppends
				fsyncs += d.Fsyncs
				snapshots += d.Snapshots
				walBytes += io.walBytes
			},
			check: func() error { return b.crashAndVerify(disk, rt, tally(acked)) }})
	}

	// The traced run adds eager on the real file system, for the vfs layer.
	var realIO fsTotals
	if c.traced {
		run, cleanup, err := realDiskRun(c, &realIO)
		if err != nil {
			return nil, fmt.Errorf("durable_bank/real disk: %w", err)
		}
		defer cleanup()
		runs = append(runs, run)
	}
	if err := res.measure(c, runs); err != nil {
		return nil, fmt.Errorf("durable_bank: %w", err)
	}
	if !c.traced {
		return res, nil
	}

	t := &pool.totals
	ops := float64(pool.ops)
	res.Layers["durable.append_ns"] = ratio(float64(t[kAppend].self), float64(t[kAppend].n))
	res.Layers["durable.wait_us"] = ratio(float64(t[kWait].self), float64(t[kWait].n)) / 1e3
	res.Layers["durable.group_commit_mean"] = ratio(float64(appends), float64(fsyncs))
	res.Layers["durable.fsyncs_per_op"] = ratio(float64(fsyncs), ops)
	res.Layers["durable.wal_bytes_per_op"] = ratio(float64(walBytes), ops)
	res.Layers["durable.checkpoints"] = float64(snapshots)
	res.Layers["vfs.write_us"] = ratio(float64(realIO.writeNs), float64(realIO.writes)) / 1e3
	res.Layers["vfs.sync_us"] = ratio(float64(realIO.syncNs), float64(realIO.syncs)) / 1e3
	res.Layers["vfs.syncs"] = float64(realIO.syncs)
	res.Layers["vfs.bytes"] = float64(realIO.bytes)

	ms, records, err := measureRecovery(c)
	if err != nil {
		return nil, fmt.Errorf("durable_bank: recovery measurement: %w", err)
	}
	res.Layers["durable.recover_ms"] = ms
	res.Layers["durable.replay_records_per_s"] = float64(records) / (ms / 1e3)
	return res, nil
}

// realDiskRun is the traced run's extra segment: the eager runtime under the
// store on the real file system (vfs.OS, a fresh directory under tmpRoot),
// every write and fsync timed into *io. Its check is a clean close and
// reopen; cleanup closes the store and removes its directory.
func realDiskRun(c config, io *fsTotals) (run *segRun, cleanup func(), err error) {
	seg := c.newSegment("disk_eager")
	seg.sampleEvery = 1
	dir, err := os.MkdirTemp(c.tmpRoot, "bank-")
	if err != nil {
		return nil, nil, err
	}
	tfs := &timingFS{FS: vfs.OS{}}
	b, err := openBank(durable.Options{Dir: dir, FS: tfs, Runtime: "eager", CheckpointEvery: time.Second}, c.workers)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	cleanup = func() {
		b.store.Close()
		os.RemoveAll(dir)
	}
	tfs.reset()
	acked := make([]counter, c.workers)
	for g := 0; g < c.workers; g++ {
		w := seg.addWorker(c.seed, b.store.Atomic)
		w.op = b.transfer(g, &w.rng, w.atomic, &acked[g].n)
	}
	return &segRun{seg: seg, rt: b.store.Runtime(), accesses: bankAccesses, extra: true,
		collect: func(segResult, stmapi.StatsSnapshot) { *io, seg.vfsSpans = tfs.snapshot() },
		check: func() error {
			err := b.store.Close()
			if err == nil {
				err = reopenAndVerify(vfs.OS{}, dir, "eager", tally(acked))
			}
			return err
		}}, cleanup, nil
}

// measureRecovery logs recoverOps single-worker operations with no
// checkpointer running, abandons the store, and times the Open that replays
// them. The log lives on an honest FaultFS, so what is timed is decoding and
// replay, not the disk, and the record count repeats exactly.
func measureRecovery(c config) (ms float64, records int, err error) {
	fs := vfs.NewFaultFS(c.seed, vfs.Mode{})
	b, err := openBank(durable.Options{Dir: bankDir, FS: fs, Runtime: "eager"}, 1)
	if err != nil {
		return 0, 0, err
	}
	rng := splitmix(c.seed)
	acked := make([]int64, 1)
	op := b.transfer(0, &rng, b.store.Atomic, &acked[0])
	for i := 0; i < c.recoverOps; i++ {
		if err := op(); err != nil {
			b.store.Abandon()
			return 0, 0, err
		}
	}
	b.store.Abandon()

	start := now()
	b, err = openBank(durable.Options{Dir: bankDir, FS: fs, Runtime: "eager", NoOpenCheckpoint: true}, 1)
	if err != nil {
		return 0, 0, err
	}
	ms = float64(now()-start) / 1e6
	defer b.store.Close()
	return ms, b.store.Recovery().Records, b.verify(acked)
}
