// Barriers: watching the paper's JIT optimizations work.
//
// A small TJ program is compiled at each optimization level; the example
// prints one method's IR so you can watch the barrier annotations change:
// every access starts with "barrier: yes" (strong atomicity inserts
// barriers everywhere), immutable/escape elimination turns some into
// "removed(...)", aggregation folds runs into a single acquire/release,
// and the whole-program not-accessed-in-transaction analysis removes the
// rest.
//
// Run: go run ./examples/barriers
package main

import (
	"fmt"
	"os"

	"repro/internal/opt"
	"repro/internal/tj"
	"repro/internal/vm"
)

const src = `
class Point {
  final var id: int;
  var x: int;
  var y: int;
  func setup(n: int) { id = n; }
}
class Stats {
  var count: int;
}
class Main {
  static var shared: Stats;
  static func worker(n: int) {
    for (var i = 0; i < n; i++) {
      atomic { shared.count = shared.count + 1; }
    }
  }
  static func describe(p: Point): int {
    p.x = p.x + 1;       // same object ...
    p.y = p.y + p.x;     // ... back to back: aggregation folds these
    return p.id;         // final field: immutable elimination
  }
  static func main() {
    shared = new Stats();
    var t = spawn Main.worker(100);
    var local = new Point();   // never escapes: escape analysis
    local.setup(7);
    var r = Main.describe(local);
    var c = shared.count;      // races with the transaction: barrier stays
    join(t);
    print(r + c - c);
  }
}`

func main() {
	for _, lvl := range []opt.Level{
		opt.O0NoOpts, opt.O1BarrierElim, opt.O2Aggregate, opt.O4WholeProg,
	} {
		prog, rep, err := tj.CompileLevel(src, lvl, 1)
		if err != nil {
			panic(err)
		}
		fmt.Printf("==== %v ====\n", lvl)
		fmt.Printf("inserted: %d read + %d write barriers; removed: %d immutable, %d escape; aggregated: %d\n",
			rep.TotalReads, rep.TotalWrites, rep.RemovedImmutable, rep.RemovedEscape, rep.AggregatedAccesses)
		if rep.WholeProg != nil {
			fmt.Printf("whole-program: NAIT removed %d reads + %d writes\n",
				rep.WholeProg.NAITReads, rep.WholeProg.NAITWrites)
		}
		for _, m := range prog.Methods {
			if m.Name == "Main.describe" {
				fmt.Println(m)
			}
		}
		fmt.Print("program output: ")
		m, err := vm.New(prog, vm.Mode{Sync: vm.SyncSTM, Strong: true, DEA: lvl.DEAEnabled()}, os.Stdout)
		if err != nil {
			panic(err)
		}
		if err := m.Run(); err != nil {
			panic(err)
		}
		fmt.Println()
	}
}
