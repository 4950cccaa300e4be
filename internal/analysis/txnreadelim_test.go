package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/lang/ir"
	"repro/internal/opt"
	"repro/internal/tj"
	"repro/internal/vm"
)

// readHeavySrc: transactions traverse an immutable-after-init tree (never
// written in any transaction) while also reading a counter that IS written
// in transactions. The Section 5.2 extension may bypass open-for-read on
// the tree loads but must keep the counter load transactional.
const readHeavySrc = `
class Node { var v: int; var l: Node; var r: Node; }
class Main {
  static var root: Node;
  static var hits: int;
  static func build(d: int): Node {
    var n = new Node();
    n.v = d;
    if (d > 0) { n.l = Main.build(d - 1); n.r = Main.build(d - 1); }
    return n;
  }
  static func sum(n: Node): int {
    if (n == null) { return 0; }
    return n.v + Main.sum(n.l) + Main.sum(n.r);
  }
  static func worker(iters: int) {
    for (var i = 0; i < iters; i++) {
      atomic {
        var s = Main.sum(root);     // tree: never written in a txn
        hits = hits + s % 7 + 1;    // counter: read AND written in txns
      }
    }
  }
  static func main() {
    root = Main.build(5);
    var t = spawn Main.worker(40);
    Main.worker(40);
    join(t);
    print(hits);
  }
}`

func TestTxnReadElimMarksOnlyConflictFreeLoads(t *testing.T) {
	prog, err := tj.Frontend(readHeavySrc)
	if err != nil {
		t.Fatal(err)
	}
	rep := analysis.Run(prog, analysis.Options{Granularity: 1, Apply: true, TxnReadElim: true})
	if rep.TxnReadsTotal == 0 {
		t.Fatal("no transactional reads counted")
	}
	if rep.TxnReadsDirect == 0 || rep.TxnReadsDirect >= rep.TxnReadsTotal {
		t.Fatalf("direct = %d of %d; want partial removal", rep.TxnReadsDirect, rep.TxnReadsTotal)
	}
	// The tree loads in sum() must be direct; the hits load must not be.
	for _, m := range prog.Methods {
		switch m.Name {
		case "Main.sum":
			for _, b := range m.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					if in.Op == ir.GetField && !in.Barrier.TxnReadDirect {
						t.Errorf("tree load (slot %d) not marked direct", in.Slot)
					}
				}
			}
		case "Main.worker":
			for _, b := range m.Blocks {
				for i := range b.Instrs {
					in := &b.Instrs[i]
					if in.Op == ir.GetStatic && in.Slot == 1 && in.Barrier.TxnReadDirect {
						t.Error("txn-written counter load marked direct")
					}
				}
			}
		}
	}
}

// TestTxnReadElimPreservesResults runs the program with and without the
// extension under weak atomicity and compares outputs (the counter update
// composition is deterministic across both).
func TestTxnReadElimPreservesResults(t *testing.T) {
	base, _, err := tj.Compile(readHeavySrc, opt.Options{WholeProgram: true})
	if err != nil {
		t.Fatal(err)
	}
	elim, rep, err := tj.Compile(readHeavySrc, opt.Options{TxnReadElim: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WholeProg.TxnReadsDirect == 0 {
		t.Fatal("extension removed nothing")
	}
	mode := vm.Mode{Sync: vm.SyncSTM, Versioning: vm.Eager, Seed: 3}
	run := func(p *ir.Program) string {
		var sb strings.Builder
		m, err := vm.New(p, mode, &sb)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(sb.String())
	}
	if a, b := run(base), run(elim); a != b {
		t.Errorf("outputs differ: %q vs %q", a, b)
	}
}

// TestTxnReadElimReducesSTMReads: the runtime's open-for-read counter must
// drop when the extension is on.
func TestTxnReadElimReducesSTMReads(t *testing.T) {
	count := func(txnReadElim bool) int64 {
		var o opt.Options
		o.WholeProgram = true
		o.TxnReadElim = txnReadElim
		prog, _, err := tj.Compile(readHeavySrc, o)
		if err != nil {
			t.Fatal(err)
		}
		m, err := vm.New(prog, vm.Mode{Sync: vm.SyncSTM, Versioning: vm.Eager, Seed: 3}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.RT.Stats().TxnReads
	}
	with, without := count(true), count(false)
	if with >= without {
		t.Errorf("open-for-read ops with extension = %d, without = %d; want a reduction", with, without)
	}
	if with == 0 {
		t.Error("counter loads must still use open-for-read")
	}
}

// TestTxnReadDirectIgnoredUnderStrong: with barriers on, the VM must NOT
// honor the mark (the paper: "this is unsound under strong atomicity").
func TestTxnReadDirectIgnoredUnderStrong(t *testing.T) {
	prog, _, err := tj.Compile(readHeavySrc, opt.Options{TxnReadElim: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(prog, vm.Mode{Sync: vm.SyncSTM, Versioning: vm.Eager, Strong: true, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.RT.Stats().TxnReads == 0 {
		t.Error("strong mode bypassed open-for-read despite the unsoundness note")
	}
}
