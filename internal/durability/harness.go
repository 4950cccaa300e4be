package durability

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/durable"
	"repro/internal/stmapi"
	"repro/internal/vfs"
)

// errDeliberate is the in-process workload's deliberate-abort sentinel.
var errDeliberate = fmt.Errorf("deliberate abort")

// Options configures a crash-loop run.
type Options struct {
	// Dir is the store directory, shared by every iteration (that is the
	// point: each child recovers what the previous one left).
	Dir string

	// Runtime is the stmapi runtime name the children run.
	Runtime string

	// ChildCommand re-executes the harness binary as a workload child; the
	// harness appends the STMCRASH_* environment. Typically
	// []string{os.Executable()} with ChildEnvVar handled in TestMain or
	// main().
	ChildCommand []string

	// Iterations is the number of crash-recover cycles.
	Iterations int

	// Seed derives per-iteration child seeds and blackbox kill delays.
	Seed uint64

	// CheckpointEvery is passed through to the child's store.
	CheckpointEvery time.Duration

	// KillPoint selects whitebox mode: the faultinject point name
	// ("wal-append", "wal-fsync", "wal-rename") at which the child SIGKILLs
	// itself, at KillRate/1024 of arrivals (default 32). Empty means
	// blackbox: the parent kills the child at a random moment.
	KillPoint string
	KillRate  uint64

	// MinRun/MaxRun bound the blackbox child lifetime (defaults 20–120ms).
	// Whitebox children are given MaxRun·50 to reach their killpoint, then
	// killed anyway.
	MinRun time.Duration
	MaxRun time.Duration

	// ArtifactDir, when set, receives a copy of the store directory, the
	// child's reported history, and the breach list for every iteration
	// that breaches an invariant.
	ArtifactDir string

	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// Result summarizes a run.
type Result struct {
	Iterations int
	Kills      int      // children that died by signal (vs clean exit)
	Acked      int      // durability promises verified
	Aborted    int      // deliberate aborts tracked
	Replayed   int      // WAL records replayed across all recoveries
	TornTails  int      // recoveries that ended at a torn record
	Snapshots  int      // recoveries that loaded a snapshot
	Breaches   []Breach // every invariant violation, with iteration context
	Artifacts  []string // artifact dirs persisted for breaches
}

func (o *Options) defaults() {
	if o.Iterations == 0 {
		o.Iterations = 25
	}
	if o.MinRun == 0 {
		o.MinRun = 20 * time.Millisecond
	}
	if o.MaxRun == 0 {
		o.MaxRun = 120 * time.Millisecond
	}
	if o.KillRate == 0 {
		o.KillRate = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Run executes the crash loop: spawn child, kill it, recover, verify,
// repeat. It returns an error only for harness plumbing failures; invariant
// violations are reported in Result.Breaches.
func Run(opts Options) (*Result, error) {
	opts.defaults()
	if len(opts.ChildCommand) == 0 {
		return nil, fmt.Errorf("durability: Options.ChildCommand required")
	}
	if opts.Dir == "" || opts.Runtime == "" {
		return nil, fmt.Errorf("durability: Options.Dir and Options.Runtime required")
	}
	res := &Result{}
	st := NewState()

	for iter := 0; iter < opts.Iterations; iter++ {
		acks, aborts, killed, err := runChild(&opts, iter)
		if err != nil {
			return res, fmt.Errorf("iteration %d: %w", iter, err)
		}
		res.Iterations++
		if killed {
			res.Kills++
		}
		st.Acks = append(st.Acks, acks...)
		st.Aborts = append(st.Aborts, aborts...)
		res.Acked += len(acks)
		res.Aborted += len(aborts)

		// Preserve the post-crash directory before the verification open
		// mutates it (a fresh epoch record, possibly a checkpoint).
		pristine, err := snapshotDir(opts.Dir)
		if err != nil {
			return res, fmt.Errorf("iteration %d: artifact copy: %w", iter, err)
		}

		sum, info, err := verifyOpen(opts.Dir, opts.Runtime)
		if err != nil {
			return res, fmt.Errorf("iteration %d: verification open: %w", iter, err)
		}
		res.Replayed += info.Records
		if info.TornTail {
			res.TornTails++
		}
		if info.SnapshotStamp > 0 {
			res.Snapshots++
		}
		breaches := st.Check(sum, info)
		for _, b := range breaches {
			b.Detail = fmt.Sprintf("iteration %d: %s", iter, b.Detail)
			res.Breaches = append(res.Breaches, b)
		}
		if len(breaches) > 0 && opts.ArtifactDir != "" {
			dir, err := persistArtifact(opts.ArtifactDir, iter, pristine, acks, aborts, breaches)
			if err == nil {
				res.Artifacts = append(res.Artifacts, dir)
			} else if opts.Log != nil {
				fmt.Fprintf(opts.Log, "iteration %d: artifact persist failed: %v\n", iter, err)
			}
		}
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "iter %3d: %3d acked, %2d aborted, replayed %4d (snap stamp %d, torn %v), breaches %d\n",
				iter, len(acks), len(aborts), info.Records, info.SnapshotStamp, info.TornTail, len(breaches))
		}
	}
	return res, nil
}

// runChild spawns one workload child, kills it per the configured mode, and
// parses its ack/abort report.
func runChild(opts *Options, iter int) (acks, aborts []Ack, killed bool, err error) {
	cmd := exec.Command(opts.ChildCommand[0], opts.ChildCommand[1:]...)
	iterSeed := splitmix64(opts.Seed ^ uint64(iter)<<16)
	maxRun := opts.MaxRun
	if opts.KillPoint != "" {
		maxRun = opts.MaxRun * 50
	}
	cmd.Env = append(os.Environ(),
		ChildEnvVar+"=1",
		childEnvDir+"="+opts.Dir,
		childEnvRuntime+"="+opts.Runtime,
		childEnvSeed+"="+strconv.FormatUint(iterSeed, 10),
		childEnvCkpt+"="+opts.CheckpointEvery.String(),
		childEnvKillPoint+"="+opts.KillPoint,
		childEnvKillRate+"="+strconv.FormatUint(opts.KillRate, 10),
		childEnvMaxRun+"="+maxRun.String(),
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, false, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, nil, false, err
	}

	parsed := make(chan struct{})
	go func() {
		defer close(parsed)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			// A SIGKILL can tear the last line mid-write; parse errors on
			// any line are therefore ignored, not fatal.
			f := strings.Fields(sc.Text())
			if len(f) < 3 {
				continue
			}
			epoch, err1 := strconv.ParseUint(f[1], 10, 64)
			id, err2 := strconv.ParseUint(f[2], 10, 64)
			if err1 != nil || err2 != nil {
				continue
			}
			switch f[0] {
			case "A":
				if len(f) != 4 {
					continue
				}
				stamp, err3 := strconv.ParseUint(f[3], 10, 64)
				if err3 != nil || stamp == 0 {
					continue
				}
				acks = append(acks, Ack{Epoch: epoch, TxnID: id, Stamp: stamp})
			case "X":
				aborts = append(aborts, Ack{Epoch: epoch, TxnID: id})
			}
		}
	}()

	if opts.KillPoint == "" {
		// Blackbox: let the child run a seeded-random slice of its life,
		// then SIGKILL it mid-flight.
		span := opts.MaxRun - opts.MinRun
		delay := opts.MinRun
		if span > 0 {
			delay += time.Duration(splitmix64(iterSeed^0xb1ac) % uint64(span))
		}
		time.Sleep(delay)
		cmd.Process.Kill()
	} else {
		// Whitebox: the injected killpoint fires inside the child; the
		// timer is only a backstop if it never reaches the point.
		timer := time.AfterFunc(maxRun+2*time.Second, func() { cmd.Process.Kill() })
		defer timer.Stop()
	}
	// Drain stdout to EOF (the child dying closes it) before Wait, which
	// would otherwise close the pipe under the parser.
	<-parsed
	if werr := cmd.Wait(); werr != nil {
		killed = true // died by signal (expected) rather than clean exit
	}
	return acks, aborts, killed, nil
}

// verifyOpen recovers the store read-only-ish (no open checkpoint, nothing
// written but the epoch record) and reports the account sum and recovery
// info.
func verifyOpen(dir, runtime string) (uint64, durable.RecoveryInfo, error) {
	s, err := durable.Open(durable.Options{
		Dir: dir, Runtime: runtime, NoOpenCheckpoint: true,
	}, SetupBank)
	if err != nil {
		return 0, durable.RecoveryInfo{}, err
	}
	defer s.Close()
	return BankSum(s.Heap()), s.Recovery(), nil
}

// snapshotDir copies the store directory into a temp dir so a breach can be
// preserved exactly as the crash left it.
func snapshotDir(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		files[e.Name()] = data
	}
	return files, nil
}

// persistArtifact writes the pristine directory image plus the iteration's
// history and breach list under artifactRoot.
func persistArtifact(artifactRoot string, iter int, files map[string][]byte, acks, aborts []Ack, breaches []Breach) (string, error) {
	dir := filepath.Join(artifactRoot, fmt.Sprintf("breach-iter-%03d", iter))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return "", err
		}
	}
	var report strings.Builder
	for _, b := range breaches {
		fmt.Fprintf(&report, "BREACH %s\n", b)
	}
	for _, a := range acks {
		fmt.Fprintf(&report, "A %d %d %d\n", a.Epoch, a.TxnID, a.Stamp)
	}
	for _, x := range aborts {
		fmt.Fprintf(&report, "X %d %d\n", x.Epoch, x.TxnID)
	}
	if err := os.WriteFile(filepath.Join(dir, "REPORT.txt"), []byte(report.String()), 0o644); err != nil {
		return "", err
	}
	return dir, nil
}

// RunInProcess is the FaultFS variant of the crash loop: the workload runs
// in-process against an in-memory fault-injecting file system, the "crash"
// is FaultFS.Crash (process and page cache die together), and recovery
// reopens the same FaultFS. This is how the harness proves it DETECTS bad
// storage: under Mode{FsyncLie: true} acked commits are lost and the
// lost-ack invariant must fire.
func RunInProcess(fs *vfs.FaultFS, runtime string, iterations int, seed uint64) (*Result, error) {
	res := &Result{}
	st := NewState()
	const dir = "/stmcrash"
	for iter := 0; iter < iterations; iter++ {
		s, err := durable.Open(durable.Options{
			Dir: dir, FS: fs, Runtime: runtime,
			CheckpointEvery: time.Millisecond,
		}, SetupBank)
		if err != nil {
			return res, fmt.Errorf("iteration %d: open: %w", iter, err)
		}
		arr, ticker := bankObjects(s.Heap())
		stamps := trackStamps(s)
		epoch := s.Epoch()
		rng := splitmix64(seed ^ uint64(iter))
		var acks, aborts []Ack
		for i := 0; i < 60; i++ {
			rng = splitmix64(rng)
			from := int(rng % BankAccounts)
			to := (from + 1 + int((rng>>8)%(BankAccounts-1))) % BankAccounts
			abort := i%abortEveryN == abortEveryN-1
			var id uint64
			err := s.Atomic(func(tx stmapi.Txn) error {
				id = tx.ID()
				a := tx.Read(arr, from)
				b := tx.Read(arr, to)
				tx.Write(arr, from, a-1)
				tx.Write(arr, to, b+1)
				tx.Write(ticker, 0, tx.Read(ticker, 0)+1)
				if abort {
					return errDeliberate
				}
				return nil
			})
			if err != nil {
				aborts = append(aborts, Ack{Epoch: epoch, TxnID: id})
			} else if stamp, ok := stamps.take(id); ok {
				acks = append(acks, Ack{Epoch: epoch, TxnID: id, Stamp: stamp})
			}
		}
		res.Iterations++
		res.Acked += len(acks)
		res.Aborted += len(aborts)
		st.Acks = append(st.Acks, acks...)
		st.Aborts = append(st.Aborts, aborts...)
		s.Abandon()
		fs.Crash()

		v, err := durable.Open(durable.Options{
			Dir: dir, FS: fs, Runtime: runtime, NoOpenCheckpoint: true,
		}, SetupBank)
		if err != nil {
			return res, fmt.Errorf("iteration %d: verify open: %w", iter, err)
		}
		info := v.Recovery()
		sum := BankSum(v.Heap())
		v.Abandon() // leave no unsynced state behind the next child
		fs.Crash()
		res.Replayed += info.Records
		for _, b := range st.Check(sum, info) {
			b.Detail = fmt.Sprintf("iteration %d: %s", iter, b.Detail)
			res.Breaches = append(res.Breaches, b)
		}
	}
	return res, nil
}
