// Command benchmark is the repository's benchmark: five workloads over the
// three STM runtimes, the strong-atomicity barriers and the durable store,
// driven only through their public functions, in one process, closed loop,
// with G = min(nproc, 4) workers. See README.md in this directory.
//
//	go run ./benchmark -workload shared_hot -seed 7 -seconds 24 -trace 0
//	go run ./benchmark -trace 1 -out runs.jsonl
//	go run ./benchmark -compare before.jsonl after.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	_ "repro/internal/lazystm"
	_ "repro/internal/mvstm"
	_ "repro/internal/stm"
)

// workloads, in the order a run of all of them takes. BENCHMARK.json records
// why each exists.
var workloads = []struct {
	name string
	run  func(config) (*wlResult, error)
}{
	{"partitioned_read", func(c config) (*wlResult, error) { return runMemory(c, "partitioned_read", partitionedRead) }},
	{"partitioned_write", func(c config) (*wlResult, error) { return runMemory(c, "partitioned_write", partitionedWrite) }},
	{"shared_hot", func(c config) (*wlResult, error) { return runMemory(c, "shared_hot", sharedHot) }},
	{"durable_bank", runDurable},
	{"privatize_nt", runPrivatize},
}

// buildDir is where the benchmark keeps what it writes when not told
// otherwise; .gitignore names it.
const buildDir = ".bench_build"

// envelope is one run: what -out appends as one line of JSON.
type envelope struct {
	Commit    string      `json:"commit"`
	Seed      uint64      `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Traced    bool        `json:"traced"`
	Host      hostInfo    `json:"host"`
	TmpFS     string      `json:"tmp_fs"`  // file-system type under durable_bank's stores
	Loadavg   string      `json:"loadavg"` // at start: a disturbed run is recognisable
	Workloads []*wlResult `json:"workloads"`
}

// resultLine is the last line of standard output for a workload.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "all", "workload to run: one of the five names, or all")
		seed     = flag.Uint64("seed", 1, "seed of every operation stream")
		seconds  = flag.Float64("seconds", 24, "measured time per workload, warm-up included; a traced run uses a third of it")
		traced   = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		out      = flag.String("out", "", "append the run's envelope to this file, one JSON document per line")
		traceOut = flag.String("trace-out", "", "span file of a traced run (default "+buildDir+"/spans-<workload>.json)")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.jsonl b.jsonl")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *traced != 0 && *traced != 1 || *seconds <= 0 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1, -seconds a positive number, and there are no other arguments")
		return 2
	}

	g := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(g)
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return fail(err)
	}
	tmpRoot, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmpRoot)

	cpu := newCPUClock()
	defer cpu.close()
	c := config{
		seed: *seed, seconds: *seconds, traced: *traced == 1, workers: g, tmpRoot: tmpRoot, cpu: cpu,
		setupReps: 31, recoverOps: 5000,
	}
	if c.traced {
		c.clockNs = calibrateClock() // only span self times use it
	}
	env := envelope{
		Commit: gitCommit(), Seed: c.seed, Seconds: c.seconds, Traced: c.traced,
		Host: host(g, c.clockNs), TmpFS: fsType(tmpRoot), Loadavg: loadavg(),
	}

	code := 0
	for _, wl := range workloads {
		if *workload != "all" && *workload != wl.name {
			continue
		}
		res, err := wl.run(c)
		if err != nil {
			return fail(err)
		}
		env.Workloads = append(env.Workloads, res)
		printTable(os.Stderr, res)
		if !res.correct() {
			code = 1
		}
		if c.traced {
			path := *traceOut
			if path == "" {
				path = filepath.Join(buildDir, "spans-"+wl.name+".json")
			}
			if err := writeSpanFile(path, &spanFile{Workload: wl.name, Seed: c.seed, Segments: res.spans}); err != nil {
				return fail(err)
			}
		}
		line, _ := json.Marshal(res.line()) // maps of strings to floats: cannot fail
		fmt.Println(string(line))
	}
	if len(env.Workloads) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	if *out != "" {
		if err := appendEnvelope(*out, &env); err != nil {
			return fail(err)
		}
	}
	return code
}

// fail reports why the benchmark could not run; 2 is its exit code.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// line is the workload's result in the shape the benchmark driver reads:
// every end-to-end metric of an untraced run, every per-layer metric of a
// traced one.
func (r *wlResult) line() resultLine {
	l := resultLine{Correct: r.correct(), Attempted: r.OpsAttempted, Failed: r.OpsFailed, Metrics: map[string]metricValue{}}
	defs, values := endToEnd(), r.E2E
	if r.Layers != nil {
		defs, values = perLayer(), r.Layers
	}
	for _, d := range defs {
		l.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	return l
}

// printTable is the fixed-width view of a workload's result.
func printTable(w *os.File, r *wlResult) {
	fmt.Fprintf(w, "\n%s: %d operations attempted, %d failed\n", r.Name, r.OpsAttempted, r.OpsFailed)
	for _, d := range append(endToEnd(), perLayer()...) {
		v, ok := r.E2E[d.Name]
		if !ok {
			if v, ok = r.Layers[d.Name]; !ok {
				continue
			}
		}
		note := ""
		if module, isTail := strings.CutSuffix(d.Name, ".op_tail_us"); isTail {
			note = fmt.Sprintf("  (p%g)", r.TailPercentile[module])
		}
		fmt.Fprintf(w, "  %-38s %16.4f %-6s%s\n", d.Name, v, d.Unit, note)
	}
	for _, c := range r.Checks {
		verdict := "ok"
		switch {
		case !c.OK && c.Gate:
			verdict = "FAILED"
		case !c.OK:
			verdict = "off (advisory)"
		}
		fmt.Fprintf(w, "  check %-32s %s  %s\n", c.Name, verdict, c.Detail)
	}
}

func appendEnvelope(path string, env *envelope) error {
	data, err := json.Marshal(env)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
