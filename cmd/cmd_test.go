// Package cmd_test smoke-tests the command-line tools end to end: each
// binary is built once into a temp dir and exercised on a real program.
package cmd_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/conflict"
	"repro/internal/elide"
	"repro/internal/metrics"
	"repro/internal/objmodel"
	"repro/internal/stm"
	"repro/internal/stmapi"
	"repro/internal/trace"
)

func buildTool(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./"+name)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

const sampleTJ = `
class Counter {
  var n: int;
  func work(iters: int) {
    for (var i = 0; i < iters; i++) { atomic { n = n + 1; } }
  }
}
class Main {
  static func main() {
    var c = new Counter();
    var t = spawn c.work(arg(0));
    c.work(arg(0));
    join(t);
    print(c.n);
  }
}`

func writeSample(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "sample.tj")
	if err := os.WriteFile(p, []byte(sampleTJ), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTjrunTool(t *testing.T) {
	bin := buildTool(t, "tjrun")
	src := writeSample(t)
	for _, mode := range []string{"synch", "weak-eager", "weak-lazy", "strong", "strong-dea", "strong-lazy"} {
		out, err := exec.Command(bin, "-mode", mode, src, "250").CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", mode, err, out)
		}
		if got := strings.TrimSpace(string(out)); got != "500" {
			t.Errorf("%s: output %q, want 500", mode, got)
		}
	}
	// Stats flag and bad inputs.
	out, err := exec.Command(bin, "-mode", "strong", "-stats", src, "10").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "txn commits") {
		t.Errorf("stats run: %v\n%s", err, out)
	}
	if _, err := exec.Command(bin, "-mode", "nope", src).CombinedOutput(); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := exec.Command(bin, src, "notanint").CombinedOutput(); err == nil {
		t.Error("bad argument accepted")
	}
}

// retryTJ hands 250 values through a one-slot box: put retries while the
// full flag is set, take retries until the other thread sets it.
const retryTJ = `
class Box {
  var full: bool;
  var val: int;
  func put(v: int) {
    atomic { if (full) { retry; } val = v; full = true; }
  }
  func take(): int {
    var v = 0;
    atomic { if (!full) { retry; } v = val; full = false; }
    return v;
  }
  func produce(n: int) {
    for (var i = 1; i <= n; i++) { put(i); }
  }
}
class Main {
  static func main() {
    var b = new Box();
    var t = spawn b.produce(250);
    var sum = 0;
    for (var i = 0; i < 250; i++) { sum += b.take(); }
    join(t);
    print(sum);
  }
}`

// TestTjrunStatsAreTheRunningRuntimes pins -stats to the runtime the mode
// selected: the retries figure used to be the eager runtime's whichever ran,
// so a lazy run always printed 0.
func TestTjrunStatsAreTheRunningRuntimes(t *testing.T) {
	bin := buildTool(t, "tjrun")
	src := filepath.Join(t.TempDir(), "retry.tj")
	if err := os.WriteFile(src, []byte(retryTJ), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"weak-eager", "weak-lazy"} {
		cmd := exec.Command(bin, "-mode", mode, "-stats", src)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s: %v\n%s", mode, err, stderr.String())
		}
		if got := strings.TrimSpace(stdout.String()); got != "31375" {
			t.Errorf("%s: output %q, want 31375", mode, got)
		}
		_, after, found := strings.Cut(stderr.String(), "retries: ")
		n, err := strconv.Atoi(strings.TrimSpace(after))
		if !found || err != nil {
			t.Fatalf("%s: no retries figure in %q", mode, stderr.String())
		}
		if n < 1 {
			t.Errorf("%s: retries: %d, want at least 1", mode, n)
		}
	}
}

func TestTjcTool(t *testing.T) {
	bin := buildTool(t, "tjc")
	src := writeSample(t)
	out, err := exec.Command(bin, "-O", "4", "-fig13", "-method", "Main.main", "-ir", src).CombinedOutput()
	if err != nil {
		t.Fatalf("tjc: %v\n%s", err, out)
	}
	for _, want := range []string{"compiled", "barriers inserted", "whole-program", "Figure 13", "func Main.main"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("tjc output missing %q:\n%s", want, out)
		}
	}
	bad := filepath.Join(t.TempDir(), "bad.tj")
	os.WriteFile(bad, []byte("class {"), 0o644)
	if _, err := exec.Command(bin, bad).CombinedOutput(); err == nil {
		t.Error("tjc accepted a syntax error")
	}
}

func TestAnomaliesTool(t *testing.T) {
	if testing.Short() {
		t.Skip("anomaly matrix is slow")
	}
	bin := buildTool(t, "stmbench")
	out, err := exec.Command(bin, "-fig", "6").CombinedOutput()
	if err != nil {
		t.Fatalf("stmbench -fig 6: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "matrix matches Figure 6") {
		t.Errorf("stmbench -fig 6 output:\n%s", out)
	}
}

// TestStmtopTool serves a metrics registry from the test process and points
// a freshly built stmtop at it: registry → HTTP → CLI rendering end to end,
// without racing against a benchmark's lifetime.
func TestStmtopTool(t *testing.T) {
	stmtop := buildTool(t, "stmtop")

	h := objmodel.NewHeap()
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "TopCell",
		Fields: []objmodel.Field{{Name: "n"}},
	})
	o := h.New(cls)
	rt := stm.New(h, stmapi.CommonConfig{})
	rt.SetTracer(trace.New(trace.Config{ShardCapacity: 256}))
	for i := 0; i < 25; i++ {
		if err := rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 0, tx.Read(o, 0)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// One deterministic conflict so the hotspot table has an entry: a
	// competing committed write between two reads dooms the first attempt.
	attempt := 0
	if err := rt.Atomic(func(tx stmapi.Txn) error {
		attempt++
		_ = tx.Read(o, 0)
		if attempt == 1 {
			done := make(chan error, 1)
			go func() {
				done <- rt.Atomic(func(tx2 stmapi.Txn) error {
					tx2.Write(o, 0, tx2.Read(o, 0)+1)
					return nil
				})
			}()
			if err := <-done; err != nil {
				t.Error(err)
			}
			_ = tx.Read(o, 0)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	reg.RegisterRuntime("cmdtest/eager", rt)
	srv, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	out, err := exec.Command(stmtop, "-once", "-addr", srv.Addr).CombinedOutput()
	if err != nil {
		t.Fatalf("stmtop: %v\n%s", err, out)
	}
	for _, want := range []string{"RUNTIME", "cmdtest/eager", "eager", "26", "validation: clock fast-path", "commit latency", "hot objects"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("stmtop output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "promoted") {
		t.Errorf("stmtop output still reports granularity promotions:\n%s", out)
	}
	// Polling mode against a live endpoint: two frames, then exit.
	out, err = exec.Command(stmtop, "-addr", srv.Addr, "-n", "2", "-interval", "50ms").CombinedOutput()
	if err != nil {
		t.Fatalf("stmtop -n 2: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "commits/s") {
		t.Errorf("polling frame missing rate columns:\n%s", out)
	}

	// An unreachable endpoint must fail loudly, not hang.
	if out, err := exec.Command(stmtop, "-once", "-addr", "127.0.0.1:1").CombinedOutput(); err == nil {
		t.Errorf("stmtop succeeded against a dead endpoint:\n%s", out)
	}
}

// TestStmbenchTraceJSON runs the stamp sweep at a small scale with tracing
// and a metrics endpoint enabled, checking that stdout stays a
// machine-readable JSON array (with the abort/retry counts), the trace
// summary lands on stderr, and the endpoint serves the running runtime.
func TestStmbenchTraceJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("stamp sweep is slow")
	}
	stmbench := buildTool(t, "stmbench")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	bench := exec.Command(stmbench, "-fig", "stamp", "-versioning", "eager", "-json", "-trace",
		"-metrics-addr", addr, "-partxns", "20000", "-maxthreads", "2")
	var benchOut, benchErr bytes.Buffer
	bench.Stdout, bench.Stderr = &benchOut, &benchErr
	if err := bench.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- bench.Wait() }()
	// Poll while the sweep runs: the endpoint is up before the first
	// measurement, and each measurement registers its runtime as it starts.
	served, running := false, true
	var runErr error
	for running && !served {
		select {
		case runErr = <-exited:
			running = false
		case <-time.After(5 * time.Millisecond):
			served = metricsServe(addr, "stamp/eager")
		}
	}
	if running {
		runErr = <-exited
	}
	if runErr != nil {
		t.Fatalf("stmbench: %v\nstderr: %s", runErr, benchErr.String())
	}
	if !served {
		t.Errorf("/metrics never listed a stamp/eager runtime while the sweep ran")
	}
	var results []map[string]any
	if err := json.Unmarshal(benchOut.Bytes(), &results); err != nil {
		t.Fatalf("stdout is not a JSON array: %v\n%s", err, benchOut.String())
	}
	if len(results) == 0 {
		t.Fatal("empty stamp sweep results")
	}
	for _, key := range []string{"commits", "aborts", "retries", "starts"} {
		if _, ok := results[0][key]; !ok {
			t.Errorf("JSON result missing %q: %v", key, results[0])
		}
	}
	for _, want := range []string{"serving http://", "trace:", "commit latency"} {
		if !strings.Contains(benchErr.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, benchErr.String())
		}
	}
}

// metricsServe reports whether the /metrics endpoint at addr answers with a
// runtime registered under name; an endpoint that is not up yet is a no.
func metricsServe(addr, name string) bool {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var snaps []metrics.RuntimeSnapshot
	if json.NewDecoder(resp.Body).Decode(&snaps) != nil {
		return false
	}
	for _, s := range snaps {
		if s.Name == name {
			return true
		}
	}
	return false
}

// TestStmbenchBadFlags: a size below 1, a deleted figure and the deleted
// -validation flag are each refused with status 2 before any figure runs,
// never a panic or a table of zeros.
func TestStmbenchBadFlags(t *testing.T) {
	stmbench := buildTool(t, "stmbench")
	for _, tc := range []struct {
		args []string
		want string // stderr must contain it
	}{
		{[]string{"-fig", "18", "-maxthreads", "0"}, "-maxthreads 0"},
		{[]string{"-fig", "15", "-reps", "0"}, "-reps 0"},
		{[]string{"-fig", "15", "-scale", "0"}, "-scale 0"},
		{[]string{"-fig", "stamp", "-partxns", "0"}, "-partxns 0"},
		{[]string{"-fig", "par"}, "stamp, crash, elide"},
		{[]string{"-fig", "durable"}, "stamp, crash, elide"},
		{[]string{"-fig", "causal"}, "stamp, crash, elide"},
		{[]string{"-validation", "walk"}, "-validation"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			cmd := exec.Command(stmbench, tc.args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("exit = %v, want status 2", err)
			}
			if strings.Contains(stderr.String(), "panic") || !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr lacks %q or panics:\n%s", tc.want, stderr.String())
			}
		})
	}
}

// TestStmtraceTool drives the flight-recorder pipeline end to end: a
// deterministic opposed-writer conflict (timestamp policy, so the younger
// writer self-aborts) is traced in-process, dumped with trace.WriteDumpFile,
// and the built stmtrace binary exports and analyzes the dump. The Perfetto
// output is schema-checked: every event carries ph/pid/ts, slices pair with
// lanes, and at least one aborted-by flow ("s"/"f" pair with matching id)
// links the victim to its killer.
func TestStmtraceTool(t *testing.T) {
	bin := buildTool(t, "stmtrace")

	tr := trace.New(trace.Config{})
	h := objmodel.NewHeap()
	cls := h.MustDefineClass(objmodel.ClassSpec{
		Name:   "TraceCell",
		Fields: []objmodel.Field{{Name: "n"}},
	})
	hot := h.New(cls)
	rt := stm.New(h, stmapi.CommonConfig{
		Handler:        &conflict.Timestamp{},
		SelfAbortAfter: 1 << 30,
	})
	rt.SetTracer(tr)

	// The older transaction holds the record until the younger one has
	// lost at least one arbitration (timestamp: younger self-aborts), then
	// commits so both finish.
	held := make(chan struct{})
	release := make(chan struct{})
	var onceHeld, onceRelease sync.Once
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(hot, 0, 1)
			onceHeld.Do(func() { close(held) })
			<-release
			return nil
		}); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		<-held
		entries := 0
		if err := rt.Atomic(func(tx stmapi.Txn) error {
			entries++
			if entries > 1 {
				// Already aborted at least once; let the holder commit.
				onceRelease.Do(func() { close(release) })
			}
			tx.Write(hot, 0, 2)
			return nil
		}); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	dump := filepath.Join(t.TempDir(), "litmus.trace.json")
	if err := trace.WriteDumpFile(dump, tr.DumpState()); err != nil {
		t.Fatal(err)
	}

	// Perfetto export: valid Chrome trace-event JSON with an aborted-by flow.
	perfOut := filepath.Join(t.TempDir(), "litmus.perfetto.json")
	if out, err := exec.Command(bin, "export", "-perfetto", "-o", perfOut, dump).CombinedOutput(); err != nil {
		t.Fatalf("stmtrace export -perfetto: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(perfOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("perfetto output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("perfetto export has no traceEvents")
	}
	slices, flowStarts, flowEnds := 0, map[any]string{}, map[any]bool{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph == "" {
			t.Fatalf("trace event missing ph: %v", ev)
		}
		if _, ok := ev["pid"]; !ok {
			t.Fatalf("trace event missing pid: %v", ev)
		}
		switch ph {
		case "X":
			slices++
			for _, key := range []string{"ts", "dur", "tid", "name"} {
				if _, ok := ev[key]; !ok {
					t.Fatalf("slice missing %q: %v", key, ev)
				}
			}
		case "s":
			flowStarts[ev["id"]], _ = ev["name"].(string)
		case "f":
			flowEnds[ev["id"]] = true
		}
	}
	if slices < 3 {
		t.Errorf("want >= 3 attempt slices (holder + victim attempts), got %d", slices)
	}
	abortedByFlows := 0
	for id, name := range flowStarts {
		if !flowEnds[id] {
			t.Errorf("flow %v has a start but no finish", id)
		}
		if name == "aborted-by" {
			abortedByFlows++
		}
	}
	if abortedByFlows == 0 {
		t.Fatalf("no aborted-by flow edges in perfetto export; flows = %v", flowStarts)
	}

	// DOT export names the conflict kinds on edges.
	dotOut, err := exec.Command(bin, "export", "-dot", dump).CombinedOutput()
	if err != nil {
		t.Fatalf("stmtrace export -dot: %v\n%s", err, dotOut)
	}
	for _, want := range []string{"digraph conflicts", "aborted-by"} {
		if !strings.Contains(string(dotOut), want) {
			t.Errorf("dot output missing %q:\n%s", want, dotOut)
		}
	}

	// Starvation report: machine-readable, with the self-abort visible.
	starveOut, err := exec.Command(bin, "starve", "-json", dump).CombinedOutput()
	if err != nil {
		t.Fatalf("stmtrace starve -json: %v\n%s", err, starveOut)
	}
	var rep struct {
		Transactions int              `json:"transactions"`
		Attempts     int              `json:"attempts"`
		Aborts       int              `json:"aborts"`
		MaxConsec    int              `json:"max_consec_aborts"`
		EdgeCounts   map[string]int64 `json:"edge_counts"`
	}
	if err := json.Unmarshal(starveOut, &rep); err != nil {
		t.Fatalf("starve -json output: %v\n%s", err, starveOut)
	}
	if rep.Transactions < 2 || rep.Aborts < 1 || rep.MaxConsec < 1 {
		t.Errorf("starve report misses the litmus shape: %+v", rep)
	}
	if rep.EdgeCounts["aborted-by"] == 0 {
		t.Errorf("starve report has no aborted-by edges: %v", rep.EdgeCounts)
	}

	// -max-consec below the observed streak must exit nonzero.
	if rep.MaxConsec > 0 {
		cmd := exec.Command(bin, "starve", "-json", "-max-consec", strconv.Itoa(rep.MaxConsec-1), dump)
		if out, err := cmd.CombinedOutput(); err == nil {
			t.Errorf("starve -max-consec %d should fail with streak %d:\n%s", rep.MaxConsec-1, rep.MaxConsec, out)
		}
	}

	// Error paths: missing file, conflicting flags.
	if _, err := exec.Command(bin, "export", "-perfetto", filepath.Join(t.TempDir(), "nope.json")).CombinedOutput(); err == nil {
		t.Error("export accepted a missing trace file")
	}
	if _, err := exec.Command(bin, "export", "-perfetto", "-dot", dump).CombinedOutput(); err == nil {
		t.Error("export accepted both -perfetto and -dot")
	}
}

func TestStmbenchFig13(t *testing.T) {
	bin := buildTool(t, "stmbench")
	out, err := exec.Command(bin, "-fig", "13").CombinedOutput()
	if err != nil {
		t.Fatalf("stmbench: %v\n%s", err, out)
	}
	for _, want := range []string{"Figure 13", "tsp", "NAIT-TL"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("stmbench output missing %q", want)
		}
	}
}

// noTxnTJ has no atomic blocks at all, so NAIT proves every
// non-transactional barrier removable — the canonical -werror trigger
// when compiled below -O4.
const noTxnTJ = `
class C { var f: int; }
class Main {
  static func main() {
    var c = new C();
    c.f = 41;
    print(c.f + 1);
  }
}`

func TestTjcWerror(t *testing.T) {
	bin := buildTool(t, "tjc")
	src := filepath.Join(t.TempDir(), "notxn.tj")
	if err := os.WriteFile(src, []byte(noTxnTJ), 0o644); err != nil {
		t.Fatal(err)
	}
	// Below -O4 the proven-removable barriers are still in place: fail.
	out, err := exec.Command(bin, "-O", "0", "-werror", src).CombinedOutput()
	if err == nil {
		t.Fatalf("tjc -O 0 -werror accepted removable-but-kept barriers:\n%s", out)
	}
	if !strings.Contains(string(out), "NAIT∪TL prove") || !strings.Contains(string(out), "-O4") {
		t.Errorf("tjc -werror diagnostic missing explanation:\n%s", out)
	}
	// At -O4 the removals are applied, so the same program passes.
	if out, err := exec.Command(bin, "-O", "4", "-werror", src).CombinedOutput(); err != nil {
		t.Fatalf("tjc -O 4 -werror: %v\n%s", err, out)
	}
	// A program whose barriers are all *needed* passes at every level.
	if out, err := exec.Command(bin, "-O", "0", "-werror", writeSample(t)).CombinedOutput(); err != nil {
		t.Fatalf("tjc -O 0 -werror on transactional sample: %v\n%s", err, out)
	}
}

func TestStmvetTool(t *testing.T) {
	bin := buildTool(t, "stmvet")
	// The suite must run clean over the whole repository (the dogfooded
	// state) — both standalone and through the go vet vettool protocol.
	out, err := exec.Command(bin, "-C", "..", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("stmvet ./... found issues: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./cmd/...", "./examples/...")
	vet.Dir = ".."
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool=stmvet: %v\n%s", err, out)
	}
	list, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("stmvet -list: %v\n%s", err, list)
	}
	for _, pass := range []string{"txnescape", "nakedaccess", "sideeffect", "retrymisuse", "ctxmisuse", "privatization"} {
		if !strings.Contains(string(list), pass) {
			t.Errorf("stmvet -list missing %s:\n%s", pass, list)
		}
	}
	if _, err := exec.Command(bin, "-passes", "nosuchpass", "./...").CombinedOutput(); err == nil {
		t.Error("stmvet accepted an unknown pass name")
	}
}

func TestStmvetIncludeTestsAndJSON(t *testing.T) {
	bin := buildTool(t, "stmvet")
	// The repo is clean by default, but its own test files deliberately
	// violate the discipline (naked probes, in-body channel handoffs) —
	// -include-tests must surface them.
	out, err := exec.Command(bin, "-C", "..", "-include-tests", "./internal/stm/").CombinedOutput()
	if err == nil {
		t.Errorf("stmvet -include-tests found nothing in internal/stm's test files:\n%s", out)
	}
	if !strings.Contains(string(out), "_test.go") {
		t.Errorf("-include-tests diagnostics name no test file:\n%s", out)
	}
	// -json: machine-readable diagnostics on stdout; a clean run is [].
	jsOut, err := exec.Command(bin, "-C", "..", "-json", "./internal/elide/").Output()
	if err != nil {
		t.Fatalf("stmvet -json on a clean package: %v", err)
	}
	var diags []map[string]any
	if err := json.Unmarshal(jsOut, &diags); err != nil {
		t.Fatalf("stmvet -json output not JSON: %v\n%s", err, jsOut)
	}
	if len(diags) != 0 {
		t.Errorf("clean package produced %d JSON diagnostics", len(diags))
	}
	// Dirty run: entries carry the stable schema.
	jsCmd := exec.Command(bin, "-C", "..", "-json", "-include-tests", "./internal/stm/")
	jsOut, _ = jsCmd.Output() // exits 1: findings expected
	if err := json.Unmarshal(jsOut, &diags); err != nil || len(diags) == 0 {
		t.Fatalf("stmvet -json dirty run: err=%v, %d diags\n%s", err, len(diags), jsOut)
	}
	for _, k := range []string{"pass", "file", "line", "message"} {
		if _, ok := diags[0][k]; !ok {
			t.Errorf("JSON diagnostic missing %q: %v", k, diags[0])
		}
	}
}

func TestStmvetElide(t *testing.T) {
	bin := buildTool(t, "stmvet")
	manifest := filepath.Join(t.TempDir(), "elide_manifest.json")
	out, err := exec.Command(bin, "elide", "-C", "..", "-o", manifest,
		"./internal/vetstm/interproc/testdata/handoff").CombinedOutput()
	if err != nil {
		t.Fatalf("stmvet elide: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "elidable") {
		t.Errorf("elide summary missing stats:\n%s", out)
	}
	m, err := elide.ReadFile(manifest)
	if err != nil {
		t.Fatalf("reading manifest: %v", err)
	}
	if m.Tool != "stmvet elide" || m.Module != "repro" {
		t.Errorf("manifest header = tool %q module %q", m.Tool, m.Module)
	}
	classes := make(map[string]int)
	for _, s := range m.Sites {
		classes[s.Class]++
	}
	for _, want := range []string{elide.ClassNAIT, elide.ClassNAITTL, elide.ClassTL, elide.ClassMixed} {
		if classes[want] == 0 {
			t.Errorf("manifest has no %q site: %v", want, classes)
		}
	}
}
