// Clean fixtures: effects after commit, effects under irrevocability,
// thread-confined RNG state, and an explicit suppression.
package sideeffect

import (
	"fmt"
	"math/rand"

	"repro/internal/stmapi"
)

func afterCommit() {
	var v uint64
	err := rt.Atomic(func(tx stmapi.Txn) error {
		v = tx.Read(obj, 0)
		tx.Write(obj, 0, v+1)
		return nil
	})
	fmt.Println(v, err) // after the block: runs exactly once
}

func irrevocableBody() {
	_ = rt.AtomicIrrevocable(func(tx stmapi.Txn) error {
		fmt.Println("runs at most once past the switch")
		return nil
	})
}

func becomeIrrevocable() {
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		v := tx.Read(obj, 0)
		tx.BecomeIrrevocable()
		fmt.Printf("snapshot %d\n", v) // after the switch: no re-execution
		return nil
	})
}

func localRNG(rng *rand.Rand) {
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		// Methods on a caller-owned *rand.Rand are thread-confined state,
		// not a visible effect (nondeterministic across attempts, but not
		// an isolation violation).
		tx.Write(obj, 0, rng.Uint64())
		return nil
	})
}

func suppressed() {
	_ = rt.Atomic(func(tx stmapi.Txn) error {
		fmt.Println("deliberate") //stmvet:ignore sideeffect -- demo output, abort rate ~0
		return nil
	})
}
