// Command stmcrash is the standalone Jepsen-style crash harness for the
// durable STM store (internal/durable + internal/durability): it re-executes
// itself as a bank-transfer workload child, kills the child — blackbox
// SIGKILL at a random moment, or whitebox at a seeded WAL-protocol
// killpoint — recovers the store, and verifies the durability invariants
// (conservation, monotone commit clock, no lost acknowledged commit, no
// resurrected abort).
//
//	stmcrash -runtime mvstm -iters 100
//	stmcrash -runtime eager -killpoint wal-fsync -iters 20
//	stmcrash -runtime lazy -iters 50 -artifacts breaches
//
// The exit status is 0 when every iteration holds every invariant, 1 on any
// breach (with artifact directories persisted when -artifacts or
// STM_DURABILITY_ARTIFACTS is set), 2 on harness plumbing errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/durability"
	"repro/internal/faultinject"
	"repro/internal/stmapi"
)

func main() {
	// The harness re-executes this binary as the workload child.
	if os.Getenv(durability.ChildEnvVar) == "1" {
		durability.ChildMain()
		return
	}

	runtimes := strings.Join(stmapi.Runtimes(), ", ")
	points := make([]string, 0, len(faultinject.WALPoints))
	for _, p := range faultinject.WALPoints {
		points = append(points, p.String())
	}
	var (
		dir        = flag.String("dir", "", "store directory (default: a fresh temp dir)")
		runtime    = flag.String("runtime", "mvstm", "STM runtime to crash: "+runtimes)
		iterations = flag.Int("iters", 50, "crash-recover iterations")
		seed       = flag.Uint64("seed", 1, "seed for kill timing and killpoint selection")
		ckpt       = flag.Duration("ckpt", 25*time.Millisecond, "child checkpoint period")
		killpoint  = flag.String("killpoint", "", "whitebox killpoint ("+strings.Join(points, ", ")+"); empty = blackbox SIGKILL")
		killrate   = flag.Uint64("killrate", 32, "whitebox kill probability in 1/1024ths of arrivals")
		artifacts  = flag.String("artifacts", os.Getenv("STM_DURABILITY_ARTIFACTS"), "directory to persist breach artifacts under")
		quiet      = flag.Bool("q", false, "suppress per-iteration progress")
	)
	flag.Parse()

	if *killpoint != "" {
		if _, ok := faultinject.PointByName(*killpoint); !ok {
			fmt.Fprintf(os.Stderr, "stmcrash: unknown killpoint %q (known: %s)\n", *killpoint, strings.Join(points, ", "))
			os.Exit(2)
		}
	}
	storeDir := *dir
	if storeDir == "" {
		d, err := os.MkdirTemp("", "stmcrash-*")
		if err != nil {
			fmt.Fprintf(os.Stderr, "stmcrash: %v\n", err)
			os.Exit(2)
		}
		defer os.RemoveAll(d)
		storeDir = d
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "stmcrash: %v\n", err)
		os.Exit(2)
	}

	opts := durability.Options{
		Dir:             storeDir,
		Runtime:         *runtime,
		ChildCommand:    []string{exe},
		Iterations:      *iterations,
		Seed:            *seed,
		CheckpointEvery: *ckpt,
		KillPoint:       *killpoint,
		KillRate:        *killrate,
		ArtifactDir:     *artifacts,
	}
	if !*quiet {
		opts.Log = os.Stderr
	}
	res, err := durability.Run(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "stmcrash: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("stmcrash: %d iterations on %s, %d kills, %d commits acked, %d aborted, %d records replayed, %d torn tails, %d snapshot recoveries\n",
		res.Iterations, *runtime, res.Kills, res.Acked, res.Aborted, res.Replayed, res.TornTails, res.Snapshots)
	if len(res.Breaches) > 0 {
		for _, b := range res.Breaches {
			fmt.Fprintf(os.Stderr, "BREACH %s\n", b)
		}
		for _, a := range res.Artifacts {
			fmt.Fprintf(os.Stderr, "artifact: %s\n", a)
		}
		os.Exit(1)
	}
	fmt.Println("stmcrash: all invariants held")
}
