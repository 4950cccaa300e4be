package vm_test

import (
	"repro/internal/opt"
	"strings"
	"testing"

	"repro/internal/tj"
	"repro/internal/vm"
)

// runTJ compiles and runs a TJ program in the given mode, returning its
// print output lines.
func runTJ(t *testing.T, src string, mode vm.Mode) []string {
	t.Helper()
	prog, err := tj.Frontend(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var out strings.Builder
	m, err := vm.New(prog, mode, &out)
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	if err := m.Run(); err != nil {
		t.Fatalf("run: %v\noutput so far:\n%s", err, out.String())
	}
	s := strings.TrimRight(out.String(), "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

func runTJErr(t *testing.T, src string, mode vm.Mode) error {
	t.Helper()
	prog, err := tj.Frontend(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m, err := vm.New(prog, mode, nil)
	if err != nil {
		t.Fatalf("vm: %v", err)
	}
	return m.Run()
}

func expectLines(t *testing.T, got []string, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("output = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

// allModes are the execution configurations a correct race-free program
// must behave identically under.
func allModes() map[string]vm.Mode {
	return map[string]vm.Mode{
		"synch":       {Sync: vm.SyncLock},
		"weak-eager":  {Sync: vm.SyncSTM, Versioning: vm.Eager},
		"weak-lazy":   {Sync: vm.SyncSTM, Versioning: vm.Lazy},
		"strong":      {Sync: vm.SyncSTM, Versioning: vm.Eager, Strong: true},
		"strong-dea":  {Sync: vm.SyncSTM, Versioning: vm.Eager, Strong: true, DEA: true},
		"strong-lazy": {Sync: vm.SyncSTM, Versioning: vm.Lazy, Strong: true},
	}
}

func TestArithmeticAndControlFlow(t *testing.T) {
	src := `
class Main {
  static func main() {
    var s = 0;
    for (var i = 1; i <= 10; i++) { s += i; }
    print(s);
    var f = 1;
    var n = 6;
    while (n > 1) { f = f * n; n--; }
    print(f);
    if (s == 55 && f == 720) { print(1); } else { print(0); }
    print(0 - 7 % 3);
    print(-13 / 4);
  }
}`
	got := runTJ(t, src, vm.Mode{Sync: vm.SyncLock})
	expectLines(t, got, "55", "720", "1", "-1", "-3")
}

func TestObjectsFieldsAndMethods(t *testing.T) {
	src := `
class Point {
  var x: int;
  var y: int;
  func sum(): int { return x + y; }
  func shift(dx: int, dy: int) { x += dx; this.y += dy; }
}
class Main {
  static func main() {
    var p = new Point();
    p.x = 3;
    p.y = 4;
    print(p.sum());
    p.shift(10, 20);
    print(p.x);
    print(p.y);
  }
}`
	got := runTJ(t, src, vm.Mode{Sync: vm.SyncLock})
	expectLines(t, got, "7", "13", "24")
}

func TestInheritanceAndVirtualDispatch(t *testing.T) {
	src := `
class Shape {
  var tag: int;
  func area(): int { return 0; }
  func describe(): int { return area() + 1000; }
}
class Square extends Shape {
  var side: int;
  func area(): int { return side * side; }
}
class Circle extends Shape {
  var r: int;
  func area(): int { return 3 * r * r; }
}
class Main {
  static func main() {
    var shapes = new Shape[3];
    var sq = new Square();
    sq.side = 4;
    var c = new Circle();
    c.r = 2;
    shapes[0] = sq;
    shapes[1] = c;
    shapes[2] = new Shape();
    var total = 0;
    for (var i = 0; i < len(shapes); i++) {
      total += shapes[i].describe();
    }
    print(total);
  }
}`
	got := runTJ(t, src, vm.Mode{Sync: vm.SyncLock})
	expectLines(t, got, "3028")
}

func TestStaticsAndInitBlocks(t *testing.T) {
	src := `
class Config {
  static var limit: int;
  static var table: int[];
  init {
    limit = 7;
    table = new int[limit];
    for (var i = 0; i < limit; i++) { table[i] = i * i; }
  }
  static func lookup(i: int): int { return table[i]; }
}
class Main {
  static func main() {
    print(Config.limit);
    print(Config.lookup(5));
  }
}`
	got := runTJ(t, src, vm.Mode{Sync: vm.SyncLock})
	expectLines(t, got, "7", "25")
}

func TestLinkedListAndNull(t *testing.T) {
	src := `
class Node {
  var val: int;
  var next: Node;
}
class Main {
  static func main() {
    var head: Node = null;
    for (var i = 1; i <= 5; i++) {
      var n = new Node();
      n.val = i;
      n.next = head;
      head = n;
    }
    var sum = 0;
    var cur = head;
    while (cur != null) {
      sum += cur.val;
      cur = cur.next;
    }
    print(sum);
  }
}`
	for name, mode := range allModes() {
		t.Run(name, func(t *testing.T) {
			got := runTJ(t, src, mode)
			expectLines(t, got, "15")
		})
	}
}

func TestAtomicCounterAllModes(t *testing.T) {
	src := `
class Counter {
  var n: int;
  func work(iters: int) {
    for (var i = 0; i < iters; i++) {
      atomic { n = n + 1; }
    }
  }
}
class Main {
  static var c: Counter;
  static func main() {
    c = new Counter();
    var t1 = spawn c.work(500);
    var t2 = spawn c.work(500);
    var t3 = spawn c.work(500);
    c.work(500);
    join(t1);
    join(t2);
    join(t3);
    print(c.n);
  }
}`
	for name, mode := range allModes() {
		t.Run(name, func(t *testing.T) {
			got := runTJ(t, src, mode)
			expectLines(t, got, "2000")
		})
	}
}

func TestSynchronizedCounter(t *testing.T) {
	src := `
class Counter {
  var n: int;
  func work(iters: int) {
    for (var i = 0; i < iters; i++) {
      synchronized (this) { n = n + 1; }
    }
  }
}
class Main {
  static func main() {
    var c = new Counter();
    var t1 = spawn c.work(800);
    c.work(800);
    join(t1);
    print(c.n);
  }
}`
	got := runTJ(t, src, vm.Mode{Sync: vm.SyncLock})
	expectLines(t, got, "1600")
}

func TestAtomicInvariantAcrossObjects(t *testing.T) {
	src := `
class Acct { var bal: int; }
class Bank {
  var a: Acct;
  var b: Acct;
  func transfer(n: int) {
    for (var i = 0; i < n; i++) {
      atomic {
        a.bal = a.bal - 1;
        b.bal = b.bal + 1;
      }
    }
  }
  func audit(n: int): int {
    var bad = 0;
    for (var i = 0; i < n; i++) {
      atomic {
        if (a.bal + b.bal != 100) { bad++; }
      }
    }
    return bad;
  }
  func auditN(n: int) { worst = worst + audit(n); }
  static var worst: int;
}
class Main {
  static func main() {
    var bank = new Bank();
    bank.a = new Acct();
    bank.b = new Acct();
    bank.a.bal = 100;
    var t1 = spawn bank.transfer(400);
    var t2 = spawn bank.auditN(400);
    bank.transfer(200);
    join(t1);
    join(t2);
    print(Bank.worst);
    print(bank.a.bal + bank.b.bal);
  }
}`
	for name, mode := range allModes() {
		t.Run(name, func(t *testing.T) {
			got := runTJ(t, src, mode)
			expectLines(t, got, "0", "100")
		})
	}
}

func TestRetryProducerConsumer(t *testing.T) {
	src := `
class Box {
  var full: bool;
  var val: int;
  func put(v: int) {
    atomic {
      if (full) { retry; }
      val = v;
      full = true;
    }
  }
  func take(): int {
    var v = 0;
    atomic {
      if (!full) { retry; }
      v = val;
      full = false;
    }
    return v;
  }
  func produce(n: int) {
    for (var i = 1; i <= n; i++) { put(i); }
  }
}
class Main {
  static func main() {
    var b = new Box();
    var t = spawn b.produce(50);
    var sum = 0;
    for (var i = 0; i < 50; i++) { sum += b.take(); }
    join(t);
    print(sum);
  }
}`
	for _, name := range []string{"weak-eager", "weak-lazy", "strong", "strong-dea", "strong-lazy"} {
		mode := allModes()[name]
		t.Run(name, func(t *testing.T) {
			got := runTJ(t, src, mode)
			expectLines(t, got, "1275")
		})
	}
}

func TestNestedAtomicFlattened(t *testing.T) {
	src := `
class Main {
  static var x: int;
  static func bump() { atomic { x++; } }
  static func main() {
    atomic {
      x = 10;
      bump();
      atomic { x = x * 2; }
    }
    print(x);
  }
}`
	for _, name := range []string{"weak-eager", "weak-lazy", "strong"} {
		mode := allModes()[name]
		t.Run(name, func(t *testing.T) {
			got := runTJ(t, src, mode)
			expectLines(t, got, "22")
		})
	}
}

func TestReturnInsideAtomicAndSync(t *testing.T) {
	src := `
class Main {
  static var x: int;
  static var lock: Main;
  static func f(): int {
    atomic {
      x = 5;
      return x + 1;
    }
  }
  static func g(): int {
    synchronized (lock) {
      return 42;
    }
  }
  static func main() {
    lock = new Main();
    print(f());
    print(g());
    print(g());
  }
}`
	for _, name := range []string{"weak-eager", "weak-lazy", "strong"} {
		mode := allModes()[name]
		t.Run(name, func(t *testing.T) {
			got := runTJ(t, src, mode)
			expectLines(t, got, "6", "42", "42")
		})
	}
}

func TestBreakContinue(t *testing.T) {
	src := `
class Main {
  static func main() {
    var s = 0;
    for (var i = 0; i < 100; i++) {
      if (i % 2 == 0) { continue; }
      if (i > 10) { break; }
      s += i;
    }
    print(s);
  }
}`
	got := runTJ(t, src, vm.Mode{Sync: vm.SyncLock})
	expectLines(t, got, "25") // 1+3+5+7+9
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"null deref", `
class Node { var next: Node; }
class Main { static func main() { var n: Node = null; n.next = null; } }`,
			"null dereference"},
		{"bounds", `
class Main { static func main() { var a = new int[3]; a[5] = 1; } }`,
			"index out of range"},
		{"div zero", `
class Main { static func main() { var z = 0; print(10 / z); } }`,
			"division by zero"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := runTJErr(t, c.src, vm.Mode{Sync: vm.SyncLock})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want containing %q", err, c.want)
			}
		})
	}
}

func TestRandDeterministic(t *testing.T) {
	src := `
class Main {
  static func main() {
    var s = 0;
    for (var i = 0; i < 100; i++) { s += rand(10); }
    print(s);
  }
}`
	a := runTJ(t, src, vm.Mode{Sync: vm.SyncLock, Seed: 42})
	b := runTJ(t, src, vm.Mode{Sync: vm.SyncLock, Seed: 42})
	if a[0] != b[0] {
		t.Errorf("same seed produced %s then %s", a[0], b[0])
	}
}

func TestStrongAtomicityMixedAccess(t *testing.T) {
	// A transactional incrementer races with a NON-transactional
	// incrementer. Under strong atomicity no update may be lost
	// (Figure 2b's ILU must not happen); weak modes may lose updates, so
	// this program is only run strong. It is compiled with barrier
	// aggregation and increments through a local, so the non-transactional
	// cc.n = cc.n + 1 is one aggregated barrier holding the record across
	// its read and its write; as two separate barriers it is not atomic,
	// and a transaction committing between them is overwritten whatever
	// the atomicity regime.
	src := `
class Cell { var n: int; }
class Main {
  static var c: Cell;
  static func txnSide() {
    for (var i = 0; i < 1500; i++) { atomic { c.n = c.n + 1; } }
  }
  static func main() {
    c = new Cell();
    var t = spawn Main.txnSide();
    var cc = c;
    for (var i = 0; i < 1500; i++) { cc.n = cc.n + 1; }
    join(t);
    print(c.n);
  }
}`
	for _, name := range []string{"strong", "strong-dea", "strong-lazy"} {
		mode := allModes()[name]
		t.Run(name, func(t *testing.T) {
			got := runTJLevel(t, src, opt.O2Aggregate, mode)
			expectLines(t, got, "3000")
		})
	}
}

func TestDEAKeepsThreadLocalPrivate(t *testing.T) {
	// Purely thread-local allocation under DEA: objects must remain
	// private and execution must still be correct.
	src := `
class Node { var v: int; var next: Node; }
class Main {
  static func main() {
    var sum = 0;
    for (var i = 0; i < 100; i++) {
      var n = new Node();
      n.v = i;
      sum += n.v;
    }
    print(sum);
  }
}`
	got := runTJ(t, src, allModes()["strong-dea"])
	expectLines(t, got, "4950")
}

func TestSpawnPublishesUnderDEA(t *testing.T) {
	src := `
class Work {
  var total: int;
  func run(n: int) { atomic { total = total + n; } }
}
class Main {
  static func main() {
    var w = new Work();
    var t1 = spawn w.run(3);
    var t2 = spawn w.run(4);
    join(t1);
    join(t2);
    print(w.total);
  }
}`
	got := runTJ(t, src, allModes()["strong-dea"])
	expectLines(t, got, "7")
}

func TestVolatileFlagAndFinalField(t *testing.T) {
	src := `
class C {
  final var id: int;
  volatile var flag: int;
  func setup(v: int) { id = v; }
}
class Main {
  static func main() {
    var c = new C();
    c.setup(9);
    c.flag = 1;
    print(c.id + c.flag);
  }
}`
	got := runTJ(t, src, allModes()["strong"])
	expectLines(t, got, "10")
}

func TestModeValidation(t *testing.T) {
	prog, err := tj.Frontend(`class Main { static func main() {} }`)
	if err != nil {
		t.Fatal(err)
	}
	// Lock mode has no barriers: the VM's own rule. The rest are
	// core.NewSystem's, surfacing through vm.New.
	for _, c := range []struct {
		name string
		mode vm.Mode
		want string // substring of the error; "" for a legal mode
	}{
		{"barriers in lock mode", vm.Mode{Sync: vm.SyncLock, Strong: true}, "lock mode"},
		{"DEA in lock mode", vm.Mode{Sync: vm.SyncLock, DEA: true}, "lock mode"},
		{"DEA over lazy", vm.Mode{Sync: vm.SyncSTM, Versioning: vm.Lazy, Strong: true, DEA: true}, "DEA requires"},
		{"DEA without barriers", vm.Mode{Sync: vm.SyncSTM, DEA: true}, "DEA requires"},
		{"strong mvstm", vm.Mode{Sync: vm.SyncSTM, Versioning: "mvstm", Strong: true}, "no barriers"},
		{"unknown runtime", vm.Mode{Sync: vm.SyncSTM, Versioning: "nosuch"}, "unknown runtime"},
		{"weak mvstm", vm.Mode{Sync: vm.SyncSTM, Versioning: "mvstm"}, ""},
		{"default versioning", vm.Mode{Sync: vm.SyncSTM, Strong: true}, ""},
	} {
		m, err := vm.New(prog, c.mode, nil)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want == "":
			if err := m.Run(); err != nil {
				t.Errorf("%s: run: %v", c.name, err)
			}
		case err == nil || !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}
