package vfs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Mode selects which lies FaultFS tells. The zero value is an honest
// file system with a volatile page cache: writes live in memory until Sync,
// Sync really makes them durable, and Crash drops everything unsynced —
// the baseline model every durable store must already survive.
type Mode struct {
	// FsyncLie makes Sync report success without making anything durable
	// (the consumer-drive write-cache lie). Under this mode a crash loses
	// data the store was told is safe — the harness's expected-breach mode.
	FsyncLie bool

	// TornWrites makes a crash persist a seeded-pseudorandom prefix of the
	// unsynced tail of each file instead of dropping it whole, modeling a
	// sector-granular partial write. Recovery must treat a half-written
	// record as the end of the log, not corruption of it.
	TornWrites bool

	// VolatileRenames makes creates, renames, and removes non-durable until
	// SyncDir on the parent directory — strict POSIX. With it off, entry
	// operations are durable immediately (the ext4-style default most code
	// silently assumes).
	VolatileRenames bool
}

// memFile is one FaultFS file: the durable image (what survives Crash) and
// the current image (what reads observe).
type memFile struct {
	durable []byte
	cur     []byte
}

// FaultFS is an in-memory FS with an explicit durability model, for
// crash-recovery tests that must be deterministic and fast. Crash simulates
// the process (and page cache) dying: every open handle is invalidated and
// all state reverts to what was durable. The FaultFS value itself survives
// a Crash, so a test reopens the "disk" and recovers from it in-process.
type FaultFS struct {
	mu   sync.Mutex
	mode Mode
	seed uint64

	files   map[string]*memFile // current namespace
	durable map[string]*memFile // crash-surviving namespace
	dirs    map[string]bool
	gen     uint64 // bumped by Crash; outstanding handles die

	syncs    int64
	dirSyncs int64
	crashes  int64
	lost     int64 // bytes dropped by crashes
}

// NewFaultFS builds a FaultFS with the given fault mode. The seed drives
// torn-write lengths and nothing else; two runs with the same seed and the
// same operation sequence crash identically.
func NewFaultFS(seed uint64, mode Mode) *FaultFS {
	return &FaultFS{
		mode:    mode,
		seed:    seed,
		files:   make(map[string]*memFile),
		durable: make(map[string]*memFile),
		dirs:    make(map[string]bool),
	}
}

type faultFile struct {
	fs   *FaultFS
	name string
	mf   *memFile
	gen  uint64
	off  int64
	rdOK bool
	wrOK bool
}

var errCrashedHandle = fmt.Errorf("vfs: handle invalidated by simulated crash")

func (f *faultFile) check() error {
	if f.gen != f.fs.gen {
		return errCrashedHandle
	}
	return nil
}

func (f *faultFile) Name() string { return f.name }

func (f *faultFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	if !f.wrOK {
		return 0, fmt.Errorf("vfs: %s not opened for writing", f.name)
	}
	end := f.off + int64(len(p))
	if n := int64(len(f.mf.cur)); n < end {
		// Extend in place, zero-filling any gap below off: an append
		// costs its own length, not the file's.
		f.mf.cur = append(f.mf.cur, make([]byte, end-n)...)
	}
	copy(f.mf.cur[f.off:end], p)
	f.off = end
	return len(p), nil
}

func (f *faultFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	if !f.rdOK {
		return 0, fmt.Errorf("vfs: %s not opened for reading", f.name)
	}
	if f.off >= int64(len(f.mf.cur)) {
		return 0, io.EOF
	}
	n := copy(p, f.mf.cur[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	if off >= int64(len(f.mf.cur)) {
		return 0, io.EOF
	}
	n := copy(p, f.mf.cur[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *faultFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	f.fs.syncs++
	if f.fs.mode.FsyncLie {
		return nil // "done!"
	}
	f.mf.durable = append(f.mf.durable[:0], f.mf.cur...)
	return nil
}

func (f *faultFile) Close() error { return nil }

// OpenFile implements FS.
func (fs *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	name = clean(name)
	mf := fs.files[name]
	if mf == nil {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
		}
		mf = &memFile{}
		fs.files[name] = mf
		if !fs.mode.VolatileRenames {
			fs.durable[name] = mf
		}
	} else if flag&os.O_TRUNC != 0 {
		mf.cur = nil
	}
	ff := &faultFile{
		fs: fs, name: name, mf: mf, gen: fs.gen,
		rdOK: flag&(os.O_RDWR|os.O_WRONLY) == 0 || flag&os.O_RDWR != 0,
		wrOK: flag&(os.O_RDWR|os.O_WRONLY) != 0,
	}
	if flag&os.O_APPEND != 0 {
		ff.off = int64(len(mf.cur))
	}
	return ff, nil
}

// ReadFile implements FS.
func (fs *FaultFS) ReadFile(name string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	mf := fs.files[clean(name)]
	if mf == nil {
		return nil, &os.PathError{Op: "read", Path: name, Err: os.ErrNotExist}
	}
	return append([]byte(nil), mf.cur...), nil
}

// Remove implements FS.
func (fs *FaultFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	name = clean(name)
	if fs.files[name] == nil {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(fs.files, name)
	if !fs.mode.VolatileRenames {
		delete(fs.durable, name)
	}
	return nil
}

// Rename implements FS.
func (fs *FaultFS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	oldname, newname = clean(oldname), clean(newname)
	mf := fs.files[oldname]
	if mf == nil {
		return &os.PathError{Op: "rename", Path: oldname, Err: os.ErrNotExist}
	}
	delete(fs.files, oldname)
	fs.files[newname] = mf
	if !fs.mode.VolatileRenames {
		delete(fs.durable, oldname)
		fs.durable[newname] = mf
	}
	return nil
}

// ReadDir implements FS.
func (fs *FaultFS) ReadDir(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir = clean(dir)
	var names []string
	for name := range fs.files {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements FS.
func (fs *FaultFS) MkdirAll(dir string, perm os.FileMode) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.dirs[clean(dir)] = true
	return nil
}

// SyncDir implements FS: with VolatileRenames set this is what makes the
// directory's current entry set durable; otherwise it only counts.
func (fs *FaultFS) SyncDir(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.dirSyncs++
	if !fs.mode.VolatileRenames {
		return nil
	}
	dir = clean(dir)
	for name := range fs.durable {
		if filepath.Dir(name) == dir {
			if fs.files[name] == nil {
				delete(fs.durable, name) // removed (or renamed away) entry
			}
		}
	}
	for name, mf := range fs.files {
		if filepath.Dir(name) == dir {
			fs.durable[name] = mf
		}
	}
	return nil
}

// Crash simulates the process and page cache dying: every open handle is
// invalidated, every file reverts to its durable image (with a torn tail
// under Mode.TornWrites), and — under Mode.VolatileRenames — the namespace
// reverts to the last SyncDir. The FaultFS remains usable: reopening files
// afterwards models a restart reading the disk.
func (fs *FaultFS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashes++
	fs.gen++
	if fs.mode.VolatileRenames {
		fs.files = make(map[string]*memFile, len(fs.durable))
		for name, mf := range fs.durable {
			fs.files[name] = mf
		}
	}
	n := uint64(0)
	for _, mf := range fs.files {
		tail := len(mf.cur) - len(mf.durable)
		if tail > 0 && fs.mode.TornWrites {
			// A seeded prefix of the unsynced tail made it to the platter.
			keep := int(splitmix64(fs.seed^fs.crashesKey()^n) % uint64(tail+1))
			fs.lost += int64(tail - keep)
			mf.durable = append(mf.durable, mf.cur[len(mf.durable):len(mf.durable)+keep]...)
		} else if len(mf.cur) != len(mf.durable) {
			if d := len(mf.cur) - len(mf.durable); d > 0 {
				fs.lost += int64(d)
			}
		}
		mf.cur = append(mf.cur[:0], mf.durable...)
		n++
	}
}

func (fs *FaultFS) crashesKey() uint64 { return uint64(fs.crashes) << 32 }

// Stats reports operation counts: fsyncs, dir syncs, crashes, and bytes
// dropped by crashes.
func (fs *FaultFS) Stats() (syncs, dirSyncs, crashes, lostBytes int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.syncs, fs.dirSyncs, fs.crashes, fs.lost
}

// splitmix64 mixes a key into uniform bits (same mix as internal/faultinject).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
