package bench

import (
	"strings"
	"testing"

	"repro/internal/stmapi"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func TestThreadSweep(t *testing.T) {
	got := ThreadSweep(16)
	want := []int{1, 2, 4, 8, 16}
	if len(got) != len(want) {
		t.Fatalf("sweep = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep = %v, want %v", got, want)
		}
	}
	if got := ThreadSweep(1); len(got) != 1 || got[0] != 1 {
		t.Errorf("sweep(1) = %v", got)
	}
	if MaxThreads() < 1 {
		t.Error("MaxThreads < 1")
	}
}

func TestRunAnomalies(t *testing.T) {
	if testing.Short() {
		t.Skip("anomaly matrix is slow")
	}
	out, ok := RunAnomalies()
	if !ok {
		t.Errorf("anomaly matrix mismatch:\n%s", out)
	}
	if !strings.Contains(out, "Figure 6") {
		t.Error("missing header")
	}
}

func TestRunStatic(t *testing.T) {
	res, err := RunStatic()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(workloads.All()) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	out := res.String()
	for _, want := range []string{"compress", "tsp", "jbb", "NAIT-TL"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
	// JVM98 rows are fully removed (the paper's claim for programs without
	// transactions); the four rows NAIT decides are EXPERIMENTS.md's Figure 13
	// counts, exactly: total, NAIT-TL, TL-NAIT, TL+NAIT.
	type counts [4]int
	pinned := map[string][2]counts{ // read, write
		"mpegaudio": {{7, 7, 0, 7}, {3, 3, 0, 3}},
		"tsp":       {{36, 31, 0, 32}, {16, 10, 0, 11}},
		"oo7":       {{62, 57, 0, 58}, {26, 6, 0, 8}},
		"jbb":       {{70, 47, 0, 54}, {30, 11, 1, 16}},
	}
	for _, row := range res.Rows {
		rep := row.Report
		if want, ok := pinned[row.Program]; ok {
			got := [2]counts{
				{rep.TotalReads, rep.NAITOnlyReads, rep.TLOnlyReads, rep.UnionReads},
				{rep.TotalWrites, rep.NAITOnlyWrites, rep.TLOnlyWrites, rep.UnionWrites},
			}
			if got != want {
				t.Errorf("%s: Figure 13 row (read, write) = %v, want %v", row.Program, got, want)
			}
			continue
		}
		if rep.UnionReads != rep.TotalReads || rep.UnionWrites != rep.TotalWrites {
			t.Errorf("%s: non-transactional program kept barriers (%d/%d reads, %d/%d writes)",
				row.Program, rep.UnionReads, rep.TotalReads, rep.UnionWrites, rep.TotalWrites)
		}
	}
}

// TestOverheadSmoke runs the Figure 15 sweep on one tiny workload set by
// shrinking Reps; it validates plumbing, not timing quality.
func TestOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep")
	}
	old := Reps
	Reps = 1
	defer func() { Reps = old }()
	res, err := RunOverhead("Figure 15 (smoke)", vm.BarrierAll, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	sawBarriers := false
	for _, row := range res.Rows {
		if row.Dynamic[0] > 0 {
			sawBarriers = true
		}
		if row.DynamicWholeProg != 0 {
			t.Errorf("%s: %d dynamic barriers survive whole-program opts", row.Workload, row.DynamicWholeProg)
		}
	}
	if !sawBarriers {
		t.Error("no workload executed any dynamic barriers at NoOpts")
	}
	if !strings.Contains(res.String(), "benchmark") {
		t.Error("table header missing")
	}
}

// TestScalingSmoke runs one scaling configuration end to end at 1–2 threads.
func TestScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep")
	}
	old := Reps
	Reps = 1
	defer func() { Reps = old }()
	res, err := RunScaling("Figure 19 (smoke)", workloads.OO7(), []int{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 6 {
		t.Fatalf("configs = %d", len(res.Order))
	}
	for _, name := range res.Order {
		if len(res.Times[name]) != 2 {
			t.Errorf("%s: %d samples", name, len(res.Times[name]))
		}
	}
	lo, hi := res.StrongWeakGap("StrongNoOpts")
	if lo <= 0 || hi <= 0 {
		t.Errorf("gap = %v/%v", lo, hi)
	}
	if !strings.Contains(res.String(), "oo7") {
		t.Error("table missing workload name")
	}
}

func TestRunCrashInvariants(t *testing.T) {
	for _, v := range stmapi.Runtimes() {
		res, err := RunCrash(CrashSpec{
			Versioning:    v,
			Workers:       4,
			Accounts:      16,
			TxnsPerWorker: 200,
			CrashRate:     10, // ~1% per point: plenty of deaths in a short run
			Seed:          3,
		})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !res.BalanceConserved || !res.RecordsShared {
			t.Fatalf("%s: invariants violated: %+v", v, res)
		}
		if res.Orphans == 0 {
			t.Errorf("%s: no orphans injected; the run exercised nothing", v)
		}
		if res.ReaperSteals == 0 {
			t.Errorf("%s: orphans died but none were reclaimed", v)
		}
	}
}
