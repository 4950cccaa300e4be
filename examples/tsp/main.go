// Tsp: the paper's Figure 18 workload driven through the public API.
//
// The TJ program implements branch-and-bound traveling salesman: worker
// threads claim start cities from a shared counter and prune against a
// shared best bound that is READ outside transactions (a benign race the
// strong system must support) and UPDATED inside atomic blocks. This
// example compiles it at two optimization levels and runs it under weak
// and strong atomicity, showing that all regimes agree on the optimal tour
// and how many isolation barriers each configuration executes.
//
// Run: go run ./examples/tsp
package main

import (
	"fmt"
	"time"

	"repro/internal/opt"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func main() {
	w := workloads.Tsp()
	const (
		threads = 2
		cities  = 9
	)
	args := []int64{threads, cities, 1} // useTxn = 1

	type cfg struct {
		name  string
		level opt.Level
		mode  vm.Mode
	}
	configs := []cfg{
		{"weak atomicity", opt.O0NoOpts,
			vm.Mode{Sync: vm.SyncSTM, Versioning: vm.Eager, Args: args, Seed: 7, CountBarriers: true}},
		{"strong, NoOpts", opt.O0NoOpts,
			vm.Mode{Sync: vm.SyncSTM, Versioning: vm.Eager, Strong: true, Args: args, Seed: 7, CountBarriers: true}},
		{"strong, +WholeProgOpts", opt.O4WholeProg,
			vm.Mode{Sync: vm.SyncSTM, Versioning: vm.Eager, Strong: true, DEA: true, Args: args, Seed: 7, CountBarriers: true}},
	}

	fmt.Printf("tsp: %d cities, %d threads\n\n", cities, threads)
	var tour string
	for _, c := range configs {
		prog, rep, err := w.Compile(c.level, 1)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		out, m, err := workloads.Run(prog, c.mode)
		if err != nil {
			panic(err)
		}
		elapsed := time.Since(start)
		barriers := int64(0)
		if m.Bar.Stats != nil {
			barriers = m.Bar.Stats.Reads.Load() + m.Bar.Stats.Writes.Load()
		}
		st := m.RT.Stats()
		fmt.Printf("%-24s best tour %s  %8s  commits %5d aborts %3d  barriers %9d\n",
			c.name, out, elapsed.Round(time.Millisecond), st.Commits, st.Aborts, barriers)
		if c.level == opt.O4WholeProg && rep.WholeProg != nil {
			wp := rep.WholeProg
			fmt.Printf("%-24s NAIT removed %d of %d read barriers and %d of %d write barriers statically\n",
				"", wp.NAITReads, wp.TotalReads, wp.NAITWrites, wp.TotalWrites)
		}
		if tour == "" {
			tour = out
		} else if out != tour {
			fmt.Println("DISAGREEMENT between configurations!")
			return
		}
	}
	fmt.Println("\nall configurations found the same optimal tour; whole-program")
	fmt.Println("analysis removed the distance-matrix barriers (never accessed in")
	fmt.Println("a transaction) while keeping the shared-bound barriers.")
}
