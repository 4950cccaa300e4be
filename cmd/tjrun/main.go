// Command tjrun compiles and executes a TJ program under a chosen
// atomicity regime.
//
// Usage:
//
//	tjrun [-mode regime] [-O level] [-g granularity] [-seed n] file.tj [args...]
//
// Regimes: synch (atomic blocks take one global lock), weak-eager,
// weak-lazy, strong (the paper's system), strong-dea, strong-lazy.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/opt"
	"repro/internal/tj"
	"repro/internal/vm"
)

func modeFor(name string) (vm.Mode, error) {
	switch name {
	case "synch":
		return vm.Mode{Sync: vm.SyncLock}, nil
	case "weak-eager":
		return vm.Mode{Sync: vm.SyncSTM, Versioning: vm.Eager}, nil
	case "weak-lazy":
		return vm.Mode{Sync: vm.SyncSTM, Versioning: vm.Lazy}, nil
	case "strong":
		return vm.Mode{Sync: vm.SyncSTM, Versioning: vm.Eager, Strong: true}, nil
	case "strong-dea":
		return vm.Mode{Sync: vm.SyncSTM, Versioning: vm.Eager, Strong: true, DEA: true}, nil
	case "strong-lazy":
		return vm.Mode{Sync: vm.SyncSTM, Versioning: vm.Lazy, Strong: true}, nil
	}
	return vm.Mode{}, fmt.Errorf("unknown mode %q", name)
}

func main() {
	modeName := flag.String("mode", "strong", "execution regime: synch, weak-eager, weak-lazy, strong, strong-dea, strong-lazy")
	level := flag.Int("O", 4, "optimization level 0..4")
	gran := flag.Int("g", 1, "version-management granularity in slots")
	seed := flag.Int64("seed", 1, "rand() seed")
	stats := flag.Bool("stats", false, "print VM statistics after the run")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: tjrun [flags] file.tj [args...]")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mode, err := modeFor(*modeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	mode.Granularity = *gran
	mode.Seed = *seed
	for _, a := range flag.Args()[1:] {
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad argument %q: %v\n", a, err)
			os.Exit(2)
		}
		mode.Args = append(mode.Args, v)
	}
	prog, _, err := tj.CompileLevel(string(src), opt.Level(*level), *gran)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m, err := vm.New(prog, mode, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := m.Run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "instructions: %d\n", m.Executed.Load())
		st := m.RT.Stats()
		fmt.Fprintf(os.Stderr, "txn commits: %d aborts: %d retries: %d\n",
			st.Commits, st.Aborts, st.UserRetries)
	}
}
