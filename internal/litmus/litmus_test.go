package litmus

import (
	"fmt"
	"testing"

	"repro/internal/conflict"
)

// underEachPolicy runs body once per conflict.PolicyNames entry, one policy
// at a time: environments read defaultPolicy, so a policy's subtests
// (t.Parallel groups included, which t.Run waits for) finish before the
// next policy is set. Every policy but the default runs as t.Run(policy);
// the default runs on t itself and last, so its subtests keep the names
// they had before the sweep (TestAnomalies/GIR) and its parallel ones,
// which start only once the test function returns, find defaultPolicy
// reset.
func underEachPolicy(t *testing.T, body func(t *testing.T)) {
	for _, policy := range conflict.PolicyNames[1:] {
		t.Run(policy, func(t *testing.T) {
			defaultPolicy = policy
			body(t)
		})
	}
	defaultPolicy = ""
	body(t)
}

// TestFigure6Matrix reproduces the paper's Figure 6: each anomaly must be
// observable exactly in the regimes the paper says it is.
func TestFigure6Matrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix is slow in -short mode")
	}
	underEachPolicy(t, func(t *testing.T) {
		results := RunAll(AllModes)
		ok, mismatch := Matches(results, AllModes)
		if !ok {
			t.Errorf("matrix mismatch: %s\n%s", mismatch, FormatMatrix(results, AllModes))
		}
	})
}

// Per-anomaly subtests give precise failure attribution and run in
// parallel.
func TestAnomalies(t *testing.T) {
	underEachPolicy(t, func(t *testing.T) {
		for _, p := range Programs() {
			t.Run(p.ID, func(t *testing.T) {
				p := p
				t.Parallel()
				for _, m := range AllModes {
					got := p.Observed(m)
					if got != p.Expected[m] {
						t.Errorf("%s (Figure %s) under %v: observed=%v, paper says %v",
							p.ID, p.Figure, m, got, p.Expected[m])
					}
				}
			})
		}
	})
}

// TestStrongNeverObservesAnything is the paper's core claim in one loop:
// the Strong column of Figure 6 is all "no". Run with extra trials.
func TestStrongNeverObservesAnything(t *testing.T) {
	underEachPolicy(t, func(t *testing.T) {
		for _, p := range Programs() {
			trials := p.Trials
			if trials < 10 {
				trials = 10
			}
			for i := 0; i < trials; i++ {
				if p.Run(Strong) {
					t.Errorf("%s observed under strong atomicity (trial %d)", p.ID, i)
					break
				}
			}
		}
	})
}

func TestFormatMatrix(t *testing.T) {
	results := []Result{{
		Program:  Programs()[0],
		Observed: map[Mode]bool{EagerWeak: true, Strong: false},
	}}
	out := FormatMatrix(results, []Mode{EagerWeak, Strong})
	if len(out) == 0 {
		t.Fatal("empty matrix output")
	}
	for _, want := range []string{"NR", "yes", "no", "eager", "strong"} {
		if !contains(out, want) {
			t.Errorf("matrix output missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || index(s, sub) >= 0)
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func ExampleFormatMatrix() {
	p := Programs()
	fmt.Println(p[0].ID, p[0].Figure)
	// Output: NR 2a
}
