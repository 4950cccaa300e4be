// Quickstart: the strongly-atomic STM as a Go library.
//
// Two accounts are updated by transactional transfers while an auditor
// reads — and a meddler writes — the same fields with plain (but
// barriered) non-transactional accesses. Under strong atomicity the
// non-transactional side is isolated from transactions: no audit ever
// observes a torn transfer and no update is lost, even though half the
// accesses never enter an atomic block.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/core"
)

func main() {
	sys := core.MustNewSystem(core.Config{Strong: true})

	account, err := sys.DefineClass("Account",
		core.Field{Name: "balance"},
		core.Field{Name: "version"},
	)
	if err != nil {
		panic(err)
	}
	a, b := sys.New(account), sys.New(account)
	sys.Write(a, 0, 1000) // seed through the barriered accessor (stmvet discipline)

	const (
		transfers = 5000
		meddles   = 5000
	)
	var torn int
	var wg sync.WaitGroup
	wg.Add(3)

	// Transactional transfers keep balance(a)+balance(b) invariant.
	go func() {
		defer wg.Done()
		for i := 0; i < transfers; i++ {
			_ = sys.Atomic(func(tx core.Tx) error {
				tx.Write(a, 0, tx.Read(a, 0)-1)
				tx.Write(b, 0, tx.Read(b, 0)+1)
				return nil
			})
		}
	}()

	// A non-transactional meddler increments a's balance WITHOUT a
	// transaction. Its read and write share one aggregated barrier (Figure
	// 14): the record is held from the read to the write, so the
	// transactions above never lose these updates, and vice versa. (A
	// separate Read and Write would be two barriers, and a transfer
	// committing between them would be overwritten.)
	go func() {
		defer wg.Done()
		bar := sys.Barriers
		for i := 0; i < meddles; i++ {
			tok := bar.Acquire(a)
			bar.AggWrite(a, 0, bar.AggRead(a, 0, tok)+1, tok)
			bar.Release(a, tok)
		}
	}()

	// A transactional auditor checks the invariant. (The non-transactional
	// meddler shifts the total over time, so the auditor checks the
	// transfer invariant modulo the meddler's monotone additions.)
	go func() {
		defer wg.Done()
		prevTotal := int64(-1)
		for i := 0; i < 2000; i++ {
			var total int64
			_ = sys.Atomic(func(tx core.Tx) error {
				total = int64(tx.Read(a, 0)) + int64(tx.Read(b, 0))
				return nil
			})
			if total < 1000 || total > 1000+meddles {
				torn++
			}
			if prevTotal >= 0 && total < prevTotal {
				torn++ // the meddler only adds; the total may never shrink
			}
			prevTotal = total
		}
	}()

	wg.Wait()
	finalA, finalB := int64(sys.Read(a, 0)), int64(sys.Read(b, 0))
	fmt.Printf("final balances: a=%d b=%d (total %d)\n", finalA, finalB, finalA+finalB)
	fmt.Printf("expected total: %d\n", int64(1000+meddles))
	fmt.Printf("torn/inconsistent audits: %d\n", torn)
	if finalA+finalB != int64(1000+meddles) || torn != 0 {
		fmt.Println("FAILED: strong atomicity was violated")
		os.Exit(1)
	}
	fmt.Println("OK: transactional and non-transactional accesses composed safely")
}
