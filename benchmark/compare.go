package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
)

// -compare a.jsonl b.jsonl: each file is a set of runs (the lines -out
// appended). Per workload and metric it prints the two medians, their relative
// difference, each set's spread and the metric's bound, and a verdict:
//
//	better      b is better than a by more than the bound, or the spread is
//	            wider than the bound but every run of b beats every run of a
//	within      the medians differ by no more than the bound
//	worse       b is worse than a by more than the bound
//	unresolved  a set's spread is wider than the bound: the runs cannot tell
//	tracked     a per-layer metric: reported, never gated
//
// It exits non-zero when any end-to-end pair is worse.

type metricKey struct{ workload, metric string }

func loadRuns(path string) (map[metricKey][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[metricKey][]float64{}
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var env envelope
		if err := dec.Decode(&env); err == io.EOF {
			return runs, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, wl := range env.Workloads {
			for _, values := range []map[string]float64{wl.E2E, wl.Layers} {
				for name, v := range values {
					k := metricKey{wl.Name, name}
					runs[k] = append(runs[k], v)
				}
			}
		}
	}
}

// spread is the distance between the first and third quartile as a share of
// the median, quartiles as Python's statistics.quantiles(vs, n=4) gives them
// (the rule the benchmark's acceptance uses). Fewer than two runs have none.
func spread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), median(s))
}

func verdict(d metricDef, a, b []float64) string {
	if d.Bound == 0 {
		return "tracked"
	}
	sign := 1.0 // of a change for the worse
	if d.Better == higher {
		sign = -1
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		for _, x := range a {
			for _, y := range b {
				if (y-x)*sign >= 0 {
					return "unresolved"
				}
			}
		}
		return "better"
	}
	switch worse := ratio(median(b)-median(a), median(a)) * sign; {
	case worse > d.Bound:
		return "worse"
	case worse < -d.Bound:
		return "better"
	}
	return "within"
}

func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := loadRuns(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return fail(err)
	}
	return compareRuns(w, a, b)
}

// sixDigits prints v with six significant digits and no exponent: the metrics
// range from 28 us of set-up to millions of operations per second.
func sixDigits(v float64) string {
	if v == 0 {
		return "0"
	}
	return strconv.FormatFloat(v, 'f', max(0, 5-int(math.Floor(math.Log10(math.Abs(v))))), 64)
}

func compareRuns(w io.Writer, a, b map[metricKey][]float64) int {
	code := 0
	fmt.Fprintf(w, "%-18s %-38s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "delta", "spread a", "spread b", "bound", "verdict")
	for _, wl := range workloads {
		for _, d := range append(endToEnd(), perLayer()...) {
			k := metricKey{wl.name, d.Name}
			va, vb := a[k], b[k]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(d, va, vb)
			if v == "worse" {
				code = 1
			}
			ma, mb := median(va), median(vb)
			fmt.Fprintf(w, "%-18s %-38s %14s %14s %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.name, d.Name, sixDigits(ma), sixDigits(mb), ratio(mb-ma, ma)*100, spread(va)*100, spread(vb)*100, d.Bound*100, v)
		}
	}
	return code
}
