package durability

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/vfs"
)

// TestMain doubles as the workload child: the harness re-executes this test
// binary with ChildEnvVar set, and we never reach m.Run in that mode.
func TestMain(m *testing.M) {
	if os.Getenv(ChildEnvVar) == "1" {
		ChildMain()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func childCommand(t *testing.T) []string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return []string{exe}
}

// artifactDir is where a breach's evidence goes: under
// STM_DURABILITY_ARTIFACTS if it is set, else under a fixed directory in
// os.TempDir() that outlives the test, one directory per subtest so that
// two runtimes breaching at the same iteration keep both. The harness
// writes there only when an iteration breaches, and the test logs each
// artifact's path.
func artifactDir(t *testing.T) string {
	root := os.Getenv("STM_DURABILITY_ARTIFACTS")
	if root == "" {
		root = filepath.Join(os.TempDir(), "stm-durability-artifacts")
	}
	return filepath.Join(root, filepath.FromSlash(t.Name()))
}

func iters(t *testing.T, full int) int {
	if testing.Short() {
		return full / 5
	}
	return full
}

// TestBlackboxCrashLoop is the acceptance gate: SIGKILL crash-recovery
// iterations across all three runtimes on the real file system, zero
// invariant breaches. Full mode runs 70 iterations per runtime (210 total,
// above the ≥200 bar); -short runs a smoke slice.
func TestBlackboxCrashLoop(t *testing.T) {
	for _, rt := range []string{"eager", "lazy", "mvstm"} {
		t.Run(rt, func(t *testing.T) {
			t.Parallel()
			res, err := Run(Options{
				Dir:             t.TempDir(),
				Runtime:         rt,
				ChildCommand:    childCommand(t),
				Iterations:      iters(t, 70),
				Seed:            0xC0FFEE ^ uint64(len(rt)),
				CheckpointEvery: 25 * time.Millisecond,
				ArtifactDir:     artifactDir(t),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range res.Breaches {
				t.Errorf("invariant breach: %s", b)
			}
			for _, a := range res.Artifacts {
				t.Logf("artifact: %s", a)
			}
			if res.Acked == 0 {
				t.Fatal("no commit was ever acknowledged — the loop tested nothing")
			}
			if res.Kills == 0 {
				t.Fatal("no child was killed — the loop tested nothing")
			}
			if res.Replayed == 0 {
				t.Fatal("no WAL record was ever replayed — recovery untested")
			}
			t.Logf("%d iterations, %d kills, %d acked, %d aborted, %d replayed, %d torn tails, %d snapshot recoveries",
				res.Iterations, res.Kills, res.Acked, res.Aborted, res.Replayed, res.TornTails, res.Snapshots)
		})
	}
}

// TestWhiteboxKillpoints drives the killpoint matrix: children SIGKILL
// themselves at seeded arrivals of each WAL-protocol point, on each runtime.
func TestWhiteboxKillpoints(t *testing.T) {
	for _, point := range []string{"wal-append", "wal-fsync", "wal-rename"} {
		for _, rt := range []string{"eager", "lazy", "mvstm"} {
			point, rt := point, rt
			t.Run(point+"/"+rt, func(t *testing.T) {
				t.Parallel()
				res, err := Run(Options{
					Dir:             t.TempDir(),
					Runtime:         rt,
					ChildCommand:    childCommand(t),
					Iterations:      iters(t, 10),
					Seed:            0xDEAD ^ uint64(len(point)*31+len(rt)),
					CheckpointEvery: 10 * time.Millisecond,
					KillPoint:       point,
					KillRate:        24,
					MaxRun:          60 * time.Millisecond,
					ArtifactDir:     artifactDir(t),
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range res.Breaches {
					t.Errorf("invariant breach: %s", b)
				}
				for _, a := range res.Artifacts {
					t.Logf("artifact: %s", a)
				}
				if res.Kills == 0 {
					t.Fatalf("killpoint %s never fired on %s", point, rt)
				}
				t.Logf("%d iterations, %d kills, %d acked, %d replayed",
					res.Iterations, res.Kills, res.Acked, res.Replayed)
			})
		}
	}
}

// TestInProcessHonestFS: the FaultFS loop on an honest (but volatile-cache)
// disk must hold every invariant on all three runtimes.
func TestInProcessHonestFS(t *testing.T) {
	for _, rt := range []string{"eager", "lazy", "mvstm"} {
		t.Run(rt, func(t *testing.T) {
			fs := vfs.NewFaultFS(11, vfs.Mode{TornWrites: true})
			res, err := RunInProcess(fs, rt, iters(t, 20), 0xAB)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range res.Breaches {
				t.Errorf("invariant breach on honest FS: %s", b)
			}
			if res.Acked == 0 || res.Replayed == 0 {
				t.Fatalf("acked %d, replayed %d — loop tested nothing", res.Acked, res.Replayed)
			}
		})
	}
}

// TestFsyncLieDetected is the expected-breach test: on a disk that lies
// about fsync, acknowledged commits are lost by a crash and the harness
// MUST say so. If this test fails, the harness has lost its teeth.
func TestFsyncLieDetected(t *testing.T) {
	fs := vfs.NewFaultFS(13, vfs.Mode{FsyncLie: true})
	res, err := RunInProcess(fs, "eager", 3, 0xCD)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, b := range res.Breaches {
		if b.Invariant == "lost-ack" {
			lost++
		}
	}
	if lost == 0 {
		t.Fatalf("no lost-ack breach detected under a lying fsync (breaches: %v)", res.Breaches)
	}
	t.Logf("fsync lie correctly detected: %d lost-ack breaches over %d acked commits", lost, res.Acked)
}

// TestVolatileRenameTolerated: losing the snapshot rename must NOT breach —
// recovery falls back to the previous snapshot plus a longer WAL tail.
func TestVolatileRenameTolerated(t *testing.T) {
	fs := vfs.NewFaultFS(17, vfs.Mode{VolatileRenames: true, TornWrites: true})
	res, err := RunInProcess(fs, "mvstm", iters(t, 10), 0xEF)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Breaches {
		t.Errorf("invariant breach under volatile renames: %s", b)
	}
}
