package vm_test

import (
	"strings"
	"testing"

	"repro/internal/opt"
	"repro/internal/tj"
	"repro/internal/vm"
)

// runTJLevel compiles at a level and runs in the mode.
func runTJLevel(t *testing.T, src string, lvl opt.Level, mode vm.Mode) []string {
	t.Helper()
	prog, _, err := tj.CompileLevel(src, lvl, mode.Granularity)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var out strings.Builder
	m, err := vm.New(prog, mode, &out)
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := strings.TrimRight(out.String(), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// mixedRaceSrc races a transactional incrementer with a non-transactional
// one. The non-transactional increment goes through a local so that, compiled
// with barrier aggregation, it is one aggregated barrier holding the record
// across its read and its write; as two separate barriers it is not atomic
// under any regime (a transaction committing between them is overwritten),
// and the counts below could not be asserted.
const mixedRaceSrc = `
class Cell { var n: int; var m: int; }
class Main {
  static var c: Cell;
  static func txnSide(iters: int) {
    for (var i = 0; i < iters; i++) {
      atomic {
        c.n = c.n + 1;
        c.m = c.m + 1;
      }
    }
  }
  static func main() {
    c = new Cell();
    var t = spawn Main.txnSide(600);
    var cc = c;
    for (var i = 0; i < 600; i++) {
      cc.n = cc.n + 1;
    }
    join(t);
    print(c.n);
    print(c.m);
  }
}`

// TestStrongWithCoarseGranularity: even with 2-slot undo spans, strong
// atomicity hides the granularity (Section 2.4's claim): the
// non-transactional increments to c.n must never be lost to span rollback
// or span write-back, in either versioning.
func TestStrongWithCoarseGranularity(t *testing.T) {
	for _, mode := range []vm.Mode{
		{Sync: vm.SyncSTM, Versioning: vm.Eager, Strong: true, Granularity: 2},
		{Sync: vm.SyncSTM, Versioning: vm.Lazy, Strong: true, Granularity: 1},
	} {
		got := runTJLevel(t, mixedRaceSrc, opt.O2Aggregate, mode)
		if len(got) != 2 || got[0] != "1200" || got[1] != "600" {
			t.Errorf("mode %+v: output %v, want [1200 600]", mode, got)
		}
	}
}

// TestQuiescenceMode: the full system with quiescence enabled still runs
// transactional programs correctly.
func TestQuiescenceMode(t *testing.T) {
	got := runTJLevel(t, mixedRaceSrc, opt.O2Aggregate,
		vm.Mode{Sync: vm.SyncSTM, Versioning: vm.Eager, Strong: true, Quiescence: true})
	if len(got) != 2 || got[0] != "1200" {
		t.Errorf("output %v", got)
	}
}

// TestBarrierSelectModes: reads-only and writes-only barrier configurations
// execute and only count their own barrier kind.
func TestBarrierSelectModes(t *testing.T) {
	src := `
class C { var x: int; }
class Main {
  static func main() {
    var c = new C();
    Main.use(c);
  }
  static func use(c: C) {
    var s = 0;
    for (var i = 0; i < 100; i++) {
      c.x = i;
      s += c.x;
    }
    print(s);
  }
}`
	prog, _, err := tj.CompileLevel(src, opt.O0NoOpts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sel        vm.BarrierSelect
		wantReads  bool
		wantWrites bool
	}{
		{vm.BarrierAll, true, true},
		{vm.BarrierReadsOnly, true, false},
		{vm.BarrierWritesOnly, false, true},
	} {
		var out strings.Builder
		m, err := vm.New(prog, vm.Mode{
			Sync: vm.SyncSTM, Versioning: vm.Eager, Strong: true,
			Barriers: tc.sel, CountBarriers: true,
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(out.String()) != "4950" {
			t.Errorf("sel %d: output %q", tc.sel, out.String())
		}
		reads, writes := m.Bar.Stats.Reads.Load(), m.Bar.Stats.Writes.Load()
		if (reads > 0) != tc.wantReads {
			t.Errorf("sel %d: reads = %d, wantReads=%v", tc.sel, reads, tc.wantReads)
		}
		if (writes > 0) != tc.wantWrites {
			t.Errorf("sel %d: writes = %d, wantWrites=%v", tc.sel, writes, tc.wantWrites)
		}
	}
}

// TestAggregatedExecutionCorrectUnderContention: aggregated barriers must
// preserve strong atomicity when a transaction races with the aggregated
// run.
func TestAggregatedExecutionCorrectUnderContention(t *testing.T) {
	src := `
class C { var a: int; var b: int; }
class Main {
  static var c: Cellish;
  static func main() {
    c = new Cellish();
    var t = spawn Main.txn(500);
    for (var i = 0; i < 500; i++) {
      Main.bump(c);
    }
    join(t);
    atomic { print(c.a); print(c.b); }
  }
  static func bump(x: Cellish) {
    x.a = x.a + 1;
    x.b = x.b + 1;
  }
  static func txn(n: int) {
    for (var i = 0; i < n; i++) {
      atomic {
        c.a = c.a + 1;
        c.b = c.b + 1;
      }
    }
  }
}
class Cellish { var a: int; var b: int; }`
	got := runTJLevel(t, src, opt.O2Aggregate,
		vm.Mode{Sync: vm.SyncSTM, Versioning: vm.Eager, Strong: true})
	if len(got) != 2 || got[0] != "1000" || got[1] != "1000" {
		t.Errorf("output %v, want [1000 1000]", got)
	}
}

// TestAggregationNoOpInWeakAndLockModes: AcquireRec/ReleaseRec are inert
// when barriers are off; the program still runs correctly.
func TestAggregationNoOpInWeakAndLockModes(t *testing.T) {
	src := `
class C { var a: int; var b: int; }
class Main {
  static func main() {
    var c = new C();
    Main.fill(c);
    print(c.a + c.b);
  }
  static func fill(c: C) {
    c.a = 3;
    c.b = c.a + 4;
  }
}`
	for _, mode := range []vm.Mode{
		{Sync: vm.SyncLock},
		{Sync: vm.SyncSTM, Versioning: vm.Eager},
		{Sync: vm.SyncSTM, Versioning: vm.Lazy},
	} {
		got := runTJLevel(t, src, opt.O2Aggregate, mode)
		if len(got) != 1 || got[0] != "10" {
			t.Errorf("mode %+v: output %v", mode, got)
		}
	}
}

// TestDEAWithWholeProgramOnWorkQueue: the combination the paper runs —
// DEA + NAIT — on the data-handoff pattern.
func TestDEAWithWholeProgramOnWorkQueue(t *testing.T) {
	src := `
class Item { var v: int; }
class Main {
  static var slot: Item;
  static var done: bool;
  static func producer(n: int) {
    var i = 0;
    while (i < n) {
      var it = new Item();
      it.v = i;
      var ok = false;
      atomic {
        if (slot == null) { slot = it; ok = true; }
      }
      if (ok) { i++; }
    }
  }
  static func main() {
    var t = spawn Main.producer(50);
    var sum = 0;
    var got = 0;
    while (got < 50) {
      var it: Item = null;
      atomic {
        if (slot != null) { it = slot; slot = null; }
      }
      if (it != null) {
        sum += it.v;   // privatized: read outside any transaction
        got++;
      }
    }
    join(t);
    print(sum);
  }
}`
	got := runTJLevel(t, src, opt.O4WholeProg,
		vm.Mode{Sync: vm.SyncSTM, Versioning: vm.Eager, Strong: true, DEA: true})
	if len(got) != 1 || got[0] != "1225" {
		t.Errorf("output %v, want [1225]", got)
	}
}

// TestInstructionAndPrintCounters sanity-checks VM statistics.
func TestInstructionAndPrintCounters(t *testing.T) {
	prog, _, err := tj.CompileLevel(`class Main { static func main() { print(1); print(2); } }`, opt.O0NoOpts, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	m, err := vm.New(prog, vm.Mode{Sync: vm.SyncLock}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Prints.Load() != 2 {
		t.Errorf("prints = %d", m.Prints.Load())
	}
	if m.Executed.Load() < 4 {
		t.Errorf("executed = %d", m.Executed.Load())
	}
}

// TestThreadDeathReleasesLocks: a spawned thread that hits a runtime error
// while holding a monitor, a transaction's records, or the Synch global
// lock must release them so surviving threads finish. A hang here fails
// via the test timeout.
func TestThreadDeathReleasesLocks(t *testing.T) {
	src := `
class C { var x: int; var arr: int[]; }
class Main {
  static var c: C;
  static func dieInTxn() {
    atomic {
      c.x = 1;
      c.arr[99] = 1;  // out of bounds: thread dies mid-transaction
    }
  }
  static func dieInSync() {
    synchronized (c) {
      c.arr[99] = 1;
    }
  }
  static func survivor(n: int) {
    for (var i = 0; i < n; i++) { atomic { c.x = c.x + 1; } }
  }
  static func survivorSync(n: int) {
    for (var i = 0; i < n; i++) { synchronized (c) { c.x = c.x + 1; } }
  }
  static func main() {
    c = new C();
    c.arr = new int[1];
    if (arg(0) == 0) {
      var t = spawn Main.dieInTxn();
      join(t);
      Main.survivor(50);
    } else {
      var t = spawn Main.dieInSync();
      join(t);
      Main.survivorSync(50);
    }
    print(c.x);
  }
}`
	for _, variant := range []int64{0, 1} {
		for _, mode := range []vm.Mode{
			{Sync: vm.SyncSTM, Versioning: vm.Eager, Strong: true, Args: []int64{variant}},
			{Sync: vm.SyncLock, Args: []int64{variant}},
		} {
			prog, _, err := tj.CompileLevel(src, opt.O0NoOpts, 1)
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			m, err := vm.New(prog, mode, &out)
			if err != nil {
				t.Fatal(err)
			}
			runErr := m.Run()
			if runErr == nil {
				t.Errorf("variant %d: expected the out-of-bounds error to surface", variant)
			}
			// The survivor loop ran to completion: no deadlock. Under the
			// STM, the dead transaction's eager write to c.x was rolled
			// back before its records were released (50); under the global
			// lock there is no rollback, so the partial effect survives
			// (51 for the in-"atomic" variant) — exactly the semantic gap
			// between transactions and locks.
			want := "50"
			if mode.Sync == vm.SyncLock && variant == 0 {
				want = "51"
			}
			if got := strings.TrimSpace(out.String()); got != want {
				t.Errorf("variant %d mode %+v: output %q, want %s", variant, mode.Sync, got, want)
			}
		}
	}
}
