package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/stmapi"
	"repro/internal/vfs"
)

// testConfig runs every segment for 50 ms (five rounds of 10 ms) with two
// workers and small fixed operation counts.
func testConfig(t *testing.T, traced bool) config {
	c := config{seed: 7, seconds: 0.15, traced: traced, workers: 2, tmpRoot: t.TempDir(),
		clockNs: 30, setupReps: 1, recoverOps: 200}
	if traced {
		c.seconds *= 3
	}
	return c
}

// benchmarkJSON is the driver's contract file at the repository root.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The catalogue in metrics.go and BENCHMARK.json must list the same
// workloads and the same metrics with the same unit, direction and bound.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command %v, want %v", b.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths %v, want %v", b.Paths, want)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if b.Workloads[i].Name != wl.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, b.Workloads[i].Name, wl.name)
		}
		if b.Workloads[i].Why == "" {
			t.Errorf("workload %q has no reason", wl.name)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd()) {
		t.Errorf("end_to_end differs:\n json %v\n prog %v", b.EndToEnd, endToEnd())
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer()) {
		t.Errorf("per_layer differs:\n json %v\n prog %v", b.PerLayer, perLayer())
	}
	if n := len(perLayer()); n != 69 {
		t.Errorf("%d per-layer metrics, want the issue's 66 and <module>.op_p50_us", n)
	}
}

// Every workload, untraced and traced, passes its checks at 50 ms segments
// and emits exactly the metrics BENCHMARK.json names.
func TestWorkloadsPassChecksAndEmitCatalogue(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, traced := range []bool{false, true} {
		c := testConfig(t, traced)
		want := b.EndToEnd
		if traced {
			want = b.PerLayer
		}
		for _, wl := range workloads {
			res, err := wl.run(c)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			for _, ck := range res.Checks {
				if ck.Gate && !ck.OK {
					t.Errorf("%s traced=%v: check %s failed: %s", wl.name, traced, ck.Name, ck.Detail)
				}
			}
			line := res.line()
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.name, traced, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(line.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := line.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", wl.name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", wl.name, traced, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value), math.IsInf(m.Value, 0), !traced && m.Value == 0 && !strings.HasSuffix(d.Name, ".ops_per_s"):
					// A rate may read 0 here, and only here: under the race
					// detector 64 operations outlast a 1 ms slice.
					t.Errorf("%s traced=%v: metric %s is %v", wl.name, traced, d.Name, m.Value)
				}
			}
			if traced && len(res.spans) == 0 {
				t.Errorf("%s: traced run kept no spans", wl.name)
			}
		}
	}
}

// crashRun acknowledges a few hundred transfers on disk, then runs the
// workload's crash check.
func crashRun(c config, runtime string, disk *vfs.FaultFS) error {
	b, err := openBank(durable.Options{Dir: bankDir, FS: disk, Runtime: runtime}, c.workers)
	if err != nil {
		return err
	}
	acked := make([]int64, c.workers)
	var wg sync.WaitGroup
	for g := 0; g < c.workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := splitmix(c.seed + uint64(g))
			op := b.transfer(g, &rng, b.store.Atomic, &acked[g])
			for i := 0; i < 100; i++ {
				op() // an error is an operation not acknowledged, which the check allows
			}
		}()
	}
	wg.Wait()
	return b.crashAndVerify(disk, runtime, acked)
}

// The crash check must fail on a file system whose fsync lies: there every
// acknowledgement is issued before its data is durable.
func TestCrashCheckHasTeeth(t *testing.T) {
	c := testConfig(t, false)
	for _, rt := range variantNames {
		if err := crashRun(c, rt, vfs.NewFaultFS(c.seed, vfs.Mode{})); err != nil {
			t.Errorf("%s on an honest file system: %v", rt, err)
		}
		if err := crashRun(c, rt, vfs.NewFaultFS(c.seed, vfs.Mode{FsyncLie: true})); err == nil {
			t.Errorf("%s: crash check passed on a file system whose fsync lies", rt)
		}
	}
}

// The sum check must fail when one increment is lost.
func TestSumCheckHasTeeth(t *testing.T) {
	sys, err := buildMemory(memSpec{objects: 4}, memVariant{runtime: "eager"}, &segment{})
	if err != nil {
		t.Fatal(err)
	}
	incs := []int64{0}
	for i := 0; i < 10; i++ {
		o := sys.objs[i%len(sys.objs)]
		if err := sys.rt.Atomic(func(tx stmapi.Txn) error {
			tx.Write(o, 1, tx.Read(o, 1)+1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		incs[0]++
	}
	if err := checkSum(sys.objs, incs); err != nil {
		t.Fatalf("before the loss: %v", err)
	}
	sys.objs[0].StoreSlot(1, sys.objs[0].LoadSlot(1)-1) // what a lost update leaves behind
	if err := checkSum(sys.objs, incs); err == nil {
		t.Fatal("sum check passed with an increment lost")
	}
}

var lostUpdate = flag.Duration("lost-update", 0, "how long TestLazyLostUpdate runs; 0 skips it")

// TestLazyLostUpdate is why shared_hot runs lazy with NoCommitClock (README,
// "A lost update in lazystm"): under the default commit-clock validation two
// workers on shared_hot's pool lose an increment about once a minute. It fails
// until lazystm is fixed, so it runs only when given time:
//
//	go test ./benchmark -run LazyLostUpdate -lost-update 5m
func TestLazyLostUpdate(t *testing.T) {
	if *lostUpdate == 0 {
		t.Skip("a known failure; -lost-update 5m runs it")
	}
	end := time.Now().Add(*lostUpdate)
	for round := 0; time.Now().Before(end); round++ {
		sys, err := buildMemory(sharedHot, memVariant{runtime: "lazy"}, &segment{})
		if err != nil {
			t.Fatal(err)
		}
		incs := make([]counter, 2)
		roundEnd := time.Now().Add(3 * time.Second)
		var wg sync.WaitGroup
		for g := range incs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := splitmix(round<<8 | g)
				op := sharedHot.op(sys.objs, &rng, sys.rt.Atomic, &incs[g].n)
				for n := 0; n%1024 != 0 || time.Now().Before(roundEnd); n++ {
					if err := op(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := checkSum(sys.objs, tally(incs)); err != nil {
			t.Fatalf("round %d of 3 s: %v", round, err)
		}
	}
}

// A span's self time is its duration minus its children, with the clock's
// cost taken out once per bracketing pair of readings.
func TestRecorderSelfTime(t *testing.T) {
	const clock = 10
	var r recorder
	r.beginOp(1, 0)
	r.add(kBegin, r.root, 0, 110)
	body := r.open(kBody, r.root, 110)
	r.add(kConflict, body, 200, 260)
	r.spans[body].end = 1000
	r.add(kCommit, r.root, 1000, 1300)
	// Three phases share their readings with their neighbours, the conflict
	// span has two of its own: five readings come off the operation's latency.
	if got := r.endOp(1300, clock); got != 5*clock {
		t.Errorf("endOp took %d ns of clock readings off the operation, want %d", got, 5*clock)
	}

	want := map[spanKind]kindTotals{
		kOp:       {n: 1, total: 1300, self: 0},
		kBegin:    {n: 1, total: 110, self: 100},
		kBody:     {n: 1, total: 890, self: 890 - 60 - 2*clock},
		kConflict: {n: 1, total: 60, self: 50},
		kCommit:   {n: 1, total: 300, self: 290},
	}
	for k, w := range want {
		if got := r.totals[k]; got != w {
			t.Errorf("%s: totals %+v, want %+v", kindNames[k], got, w)
		}
	}
	if r.sampled != 1 {
		t.Errorf("sampled %d operations, want 1", r.sampled)
	}
}

// The gated rate is taken over the slices the hypervisor left alone, or over
// the quietest eighth when it left too few alone.
func TestQuietSlices(t *testing.T) {
	full := 100e6 * int64(runtime.NumCPU()) // every processor handed out for all of a 100 ms slice
	mk := func(withheld ...float64) []slice {
		var sls []slice
		for i, w := range withheld {
			sls = append(sls, slice{ns: 100e6, ops: int64(i), handedOut: int64(float64(full) * (1 - w))})
		}
		return sls
	}
	ops := func(sls []slice) []int64 {
		var out []int64
		for _, sl := range sls {
			out = append(out, sl.ops)
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		slices []slice
		want   []int64 // the ops fields, which number the slices
	}{
		{"a quiet host", mk(0, 0.05, 0, 0.1), []int64{0, 2, 1, 3}},
		{"one slice in four disturbed", mk(0, 0.3, 0.04, 0), []int64{0, 3, 2}},
		{"a busy host", mk(0.5, 0.4, 0.3, 0.2, 0.6, 0.7, 0.8, 0.9, 0.25), []int64{3, 8}},
	} {
		if got := ops(quiet(tc.slices)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: quiet slices %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestHandedOutTicks(t *testing.T) {
	for stat, want := range map[string]int64{
		"cpu  10 20 30 40 50 60 70 400977 5 5\ncpu0 1 2 3 4 5 6 7 8 9 10\n": 280,
		"cpu 1 2 3 4\ncpu0 1 2 3 4\n":                                       10, // an old kernel: what columns there are
		"cpu0 1 2 3 4 5 6 7 8 9 10\n":                                       0,
		"":                                                                  0,
	} {
		if got := handedOutTicks([]byte(stat)); got != want {
			t.Errorf("handedOutTicks(%q) = %d, want %d", stat, got, want)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := spread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
	// statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
	if got, want := spread([]float64{13, 10, 11}), 3.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	rate := metricDef{Name: "eager.ops_per_s", Better: higher, Bound: 0.10}
	lat := metricDef{Name: "eager.op_p50_us", Better: lower, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", rate, steady, steady, "within"},
		{"rate down 20%", rate, steady, []float64{80, 81, 79, 80, 82}, "worse"},
		{"rate up 20%", rate, steady, []float64{120, 121, 119, 120, 122}, "better"},
		{"latency up 20%", lat, steady, []float64{120, 121, 119, 120, 122}, "worse"},
		{"latency down 20%", lat, steady, []float64{80, 81, 79, 80, 82}, "better"},
		{"wide and overlapping", rate, steady, []float64{60, 140, 90, 110, 100}, "unresolved"},
		{"wide but every run better", rate, steady, []float64{150, 300, 200, 250, 180}, "better"},
		{"per-layer", metricDef{Name: "stm.begin_ns", Better: lower}, steady, []float64{200}, "tracked"},
	} {
		if got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
