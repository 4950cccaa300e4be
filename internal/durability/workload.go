// Package durability is the Jepsen-style crash harness for the durable STM
// store (internal/durable): a parent process runs a bank-transfer workload
// in child processes, kills them — blackbox SIGKILL at a random moment, or
// whitebox at a seeded fault-injection killpoint inside the WAL protocol —
// recovers the store, and checks invariants that must survive any crash:
//
//  1. conservation: the account balances always sum to the initial total
//  2. monotone clock: the recovered commit clock never runs backwards, and
//     never falls below the stamp of any acknowledged commit
//  3. no lost ack: every transaction acknowledged as committed (its Atomic
//     returned nil, so its redo record was fsynced) is present after
//     recovery — in the snapshot or in the replayed tail
//  4. no resurrection: a transaction that aborted is never replayed
//
// A breach persists the store directory as an artifact and fails the run.
package durability

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/objmodel"
	"repro/internal/stmapi"

	_ "repro/internal/lazystm" // register the runtimes the child can be told to run
	_ "repro/internal/mvstm"
	_ "repro/internal/stm"
)

// Bank workload shape. The child transfers units between BankAccounts
// accounts (conserving the total) and bumps a per-commit ticker object, so
// every commit's redo image spans two objects.
const (
	BankAccounts = 16
	BankInit     = 1000
	bankWorkers  = 4

	// abortEveryN makes each worker deliberately abort every Nth
	// transaction (the body writes, then errors out) — the no-resurrection
	// invariant needs a population of aborted (epoch, txnID) pairs.
	abortEveryN = 17
)

// SetupBank is the deterministic heap constructor shared by the child and
// every verification reopen: object 1 is the account array, object 2 the
// ticker.
func SetupBank(h *objmodel.Heap) error {
	arr := h.NewArray(BankAccounts, false)
	for i := 0; i < BankAccounts; i++ {
		arr.StoreSlot(i, BankInit)
	}
	h.NewArray(1, false) // ticker
	return nil
}

// bankObjects resolves the workload's two objects in a recovered heap.
func bankObjects(h *objmodel.Heap) (arr, ticker *objmodel.Object) {
	return h.Get(objmodel.Ref(1)), h.Get(objmodel.Ref(2))
}

// BankSum reads the recovered account total non-transactionally (the store
// is quiescent at verification time).
func BankSum(h *objmodel.Heap) uint64 {
	arr, _ := bankObjects(h)
	var sum uint64
	for i := 0; i < BankAccounts; i++ {
		sum += arr.LoadSlot(i)
	}
	return sum
}

// stampSink is a commit sink installed over a store that records the
// commit stamp of every redo record it forwards, so a worker can report the
// stamp of a transaction it just ran.
type stampSink struct {
	stmapi.CommitSink
	stamps sync.Map // txnID → stamp, popped by take
}

// trackStamps installs a stampSink over s.
func trackStamps(s *durable.Store) *stampSink {
	k := &stampSink{CommitSink: s}
	s.Runtime().(stmapi.DurableRuntime).SetCommitSink(k)
	return k
}

// AppendRedo implements stmapi.CommitSink.
func (k *stampSink) AppendRedo(txnID, stamp uint64, writes []stmapi.RedoWrite) (uint64, error) {
	k.stamps.Store(txnID, stamp)
	return k.CommitSink.AppendRedo(txnID, stamp, writes)
}

// take pops the stamp recorded for txnID; ok is false for a transaction
// that logged nothing.
func (k *stampSink) take(txnID uint64) (uint64, bool) {
	v, ok := k.stamps.LoadAndDelete(txnID)
	if !ok {
		return 0, false
	}
	return v.(uint64), true
}

// Child environment. The harness re-executes its own binary with
// ChildEnvVar=1; ChildMain picks the rest of its configuration from the
// other variables.
const (
	ChildEnvVar        = "STMCRASH_CHILD"
	childEnvDir        = "STMCRASH_DIR"
	childEnvRuntime    = "STMCRASH_RUNTIME"
	childEnvSeed       = "STMCRASH_SEED"
	childEnvCkpt       = "STMCRASH_CKPT"
	childEnvKillPoint  = "STMCRASH_KILLPOINT"
	childEnvKillRate   = "STMCRASH_KILLRATE"
	childEnvMaxRun     = "STMCRASH_MAXRUN"
	childEnvNoOpenCkpt = "STMCRASH_NO_OPEN_CKPT"
)

func envDuration(key string, def time.Duration) time.Duration {
	if v := os.Getenv(key); v != "" {
		if d, err := time.ParseDuration(v); err == nil {
			return d
		}
	}
	return def
}

func envUint(key string, def uint64) uint64 {
	if v := os.Getenv(key); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// ChildMain is the crash-harness child: open the store, hammer it with
// transfers, report acks and aborts on stdout, and run until killed (or a
// safety limit elapses — the parent is supposed to kill us first). It never
// returns an error to the parent through the exit code; dying abruptly is
// its job.
func ChildMain() {
	dir := os.Getenv(childEnvDir)
	runtime := os.Getenv(childEnvRuntime)
	if dir == "" || runtime == "" {
		fmt.Fprintln(os.Stderr, "stmcrash child: STMCRASH_DIR and STMCRASH_RUNTIME required")
		os.Exit(2)
	}
	seed := envUint(childEnvSeed, 1)
	opts := durable.Options{
		Dir:              dir,
		Runtime:          runtime,
		CheckpointEvery:  envDuration(childEnvCkpt, 25*time.Millisecond),
		NoOpenCheckpoint: os.Getenv(childEnvNoOpenCkpt) == "1",
	}
	if name := os.Getenv(childEnvKillPoint); name != "" {
		p, ok := faultinject.PointByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "stmcrash child: unknown killpoint %q\n", name)
			os.Exit(2)
		}
		rate := envUint(childEnvKillRate, 32)
		opts.Injector = faultinject.New(seed, faultinject.Rule{
			Point: p, Action: faultinject.Kill, Rate: rate,
		})
	}

	s, err := durable.Open(opts, SetupBank)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stmcrash child: open: %v\n", err)
		os.Exit(2)
	}
	arr, ticker := bankObjects(s.Heap())
	stamps := trackStamps(s)

	// Acks go straight to stdout, one small write per line, serialized by a
	// mutex: a SIGKILL can tear at most the final line, which the parent's
	// parser tolerates. An "A" line is printed only after Atomic returned
	// nil — after the group-commit fsync barrier — so each one is a
	// durability promise the parent holds us to.
	var outMu sync.Mutex
	epoch := s.Epoch()
	outMu.Lock()
	fmt.Printf("E %d\n", epoch)
	outMu.Unlock()

	deadline := time.Now().Add(envDuration(childEnvMaxRun, 30*time.Second))
	var wg sync.WaitGroup
	errAbort := fmt.Errorf("deliberate abort")
	for g := 0; g < bankWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := seed ^ uint64(g)<<48
			for i := 0; time.Now().Before(deadline); i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				from := int(rng>>33) % BankAccounts
				to := (from + 1 + int(rng>>17)%(BankAccounts-1)) % BankAccounts
				abort := i%abortEveryN == abortEveryN-1
				var id uint64
				err := s.Atomic(func(tx stmapi.Txn) error {
					id = tx.ID()
					a := tx.Read(arr, from)
					b := tx.Read(arr, to)
					tx.Write(arr, from, a-1)
					tx.Write(arr, to, b+1)
					tx.Write(ticker, 0, tx.Read(ticker, 0)+1)
					if abort {
						return errAbort
					}
					return nil
				})
				outMu.Lock()
				if err != nil {
					fmt.Printf("X %d %d\n", epoch, id)
				} else if stamp, ok := stamps.take(id); ok {
					fmt.Printf("A %d %d %d\n", epoch, id, stamp)
				}
				outMu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	s.Close()
}
