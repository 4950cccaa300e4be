package bench

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/lang/ir"
	"repro/internal/litmus"
	"repro/internal/workloads"
)

// ---- Figure 13: static barrier-removal counts ----

// StaticRow is one program's row of Figure 13.
type StaticRow struct {
	Program string
	Report  *analysis.Report
}

// StaticResult is the Figure 13 table.
type StaticResult struct {
	Rows []StaticRow
}

// RunStatic produces Figure 13: for each workload, the barriers in
// reachable non-transactional code and how many are removed by NAIT but
// not TL, by TL but not NAIT, and by both applied together.
func RunStatic() (*StaticResult, error) {
	res := &StaticResult{}
	for _, w := range workloads.All() {
		prog, err := wFrontend(w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		rep := analysis.Run(prog, analysis.Options{Granularity: 1})
		res.Rows = append(res.Rows, StaticRow{Program: w.Name, Report: rep})
	}
	return res, nil
}

func wFrontend(w workloads.Workload) (*ir.Program, error) {
	prog, _, err := w.Compile(0, 1) // O0: counting must see every barrier
	return prog, err
}

// String renders the Figure 13 table.
func (r *StaticResult) String() string {
	var b strings.Builder
	b.WriteString("Figure 13: static counts of non-transactional barriers removed\n")
	fmt.Fprintf(&b, "%-11s %-6s %7s %9s %9s %9s\n",
		"program", "type", "total", "NAIT-TL", "TL-NAIT", "TL+NAIT")
	for _, row := range r.Rows {
		rep := row.Report
		fmt.Fprintf(&b, "%-11s %-6s %7d %9d %9d %9d\n",
			row.Program, "read", rep.TotalReads, rep.NAITOnlyReads, rep.TLOnlyReads, rep.UnionReads)
		fmt.Fprintf(&b, "%-11s %-6s %7d %9d %9d %9d\n",
			"", "write", rep.TotalWrites, rep.NAITOnlyWrites, rep.TLOnlyWrites, rep.UnionWrites)
	}
	return b.String()
}

// ---- Figure 6: the anomaly matrix ----

// RunAnomalies produces the Figure 6 matrix, what each of its programs
// does, and whether the matrix matches the paper's expectations.
func RunAnomalies() (string, bool) {
	results := litmus.RunAll(litmus.AllModes)
	ok, mismatch := litmus.Matches(results, litmus.AllModes)
	var b strings.Builder
	b.WriteString("Figure 6: weak atomicity anomaly matrix (observed)\n")
	b.WriteString(litmus.FormatMatrix(results, litmus.AllModes))
	b.WriteString("\n")
	for _, p := range litmus.Programs() {
		fmt.Fprintf(&b, "%-6s (Figure %-5s %s): %s\n", p.ID, p.Figure, p.Row, p.Description)
	}
	if !ok {
		b.WriteString("\nMISMATCH vs paper: " + mismatch + "\n")
	}
	return b.String(), ok
}
