package vfs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOSRoundTrip exercises the production FS: create, append, sync, rename,
// dir sync, list, read back.
func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var fs OS
	f, err := fs.OpenFile(filepath.Join(dir, "a.tmp"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(filepath.Join(dir, "a.tmp"), filepath.Join(dir, "a")); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "a" {
		t.Fatalf("ReadDir = %v, want [a]", names)
	}
	data, err := fs.ReadFile(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello" {
		t.Fatalf("ReadFile = %q", data)
	}
}

// TestFaultFSUnsyncedLoss: the honest baseline — synced data survives a
// crash, unsynced data does not.
func TestFaultFSUnsyncedLoss(t *testing.T) {
	fs := NewFaultFS(1, Mode{})
	f, err := fs.OpenFile("/d/wal", os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("durable|"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("volatile"))
	fs.Crash()

	if _, err := f.Write([]byte("x")); err == nil {
		t.Fatal("write through a crashed handle succeeded")
	}
	data, err := fs.ReadFile("/d/wal")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "durable|" {
		t.Fatalf("after crash: %q, want only the synced prefix", data)
	}
}

// TestFaultFSFsyncLie: Sync succeeds but a crash still loses the data.
func TestFaultFSFsyncLie(t *testing.T) {
	fs := NewFaultFS(1, Mode{FsyncLie: true})
	f, _ := fs.OpenFile("/d/wal", os.O_CREATE|os.O_WRONLY, 0o644)
	f.Write([]byte("acked"))
	if err := f.Sync(); err != nil {
		t.Fatalf("a lying fsync must report success, got %v", err)
	}
	fs.Crash()
	data, err := fs.ReadFile("/d/wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("fsync-lie crash kept %q, want empty", data)
	}
}

// TestFaultFSTornWrites: a crash persists some prefix of the unsynced tail,
// never more than was written and always at least the synced image;
// identical seeds tear identically.
func TestFaultFSTornWrites(t *testing.T) {
	tear := func(seed uint64) int {
		fs := NewFaultFS(seed, Mode{TornWrites: true})
		f, _ := fs.OpenFile("/d/wal", os.O_CREATE|os.O_WRONLY, 0o644)
		f.Write([]byte("safe|"))
		f.Sync()
		f.Write(bytes.Repeat([]byte{0xAB}, 100))
		fs.Crash()
		data, err := fs.ReadFile("/d/wal")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte("safe|")) {
			t.Fatalf("torn crash lost synced data: %q", data)
		}
		if len(data) > 105 {
			t.Fatalf("torn crash kept %d bytes, wrote only 105", len(data))
		}
		return len(data)
	}
	if a, b := tear(7), tear(7); a != b {
		t.Fatalf("same seed tore differently: %d vs %d", a, b)
	}
}

// TestFaultFSVolatileRenames: a rename (and the create preceding it) is
// rolled back by a crash unless the directory was synced.
func TestFaultFSVolatileRenames(t *testing.T) {
	fs := NewFaultFS(1, Mode{VolatileRenames: true})
	f, _ := fs.OpenFile("/d/snap.tmp", os.O_CREATE|os.O_WRONLY, 0o644)
	f.Write([]byte("snapshot"))
	f.Sync()
	if err := fs.Rename("/d/snap.tmp", "/d/snap"); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	if _, err := fs.ReadFile("/d/snap"); err == nil {
		t.Fatal("unsynced rename survived the crash")
	}

	// Same dance with a SyncDir: now it must survive.
	f, _ = fs.OpenFile("/d/snap.tmp", os.O_CREATE|os.O_WRONLY, 0o644)
	f.Write([]byte("snapshot"))
	f.Sync()
	fs.Rename("/d/snap.tmp", "/d/snap")
	if err := fs.SyncDir("/d"); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	data, err := fs.ReadFile("/d/snap")
	if err != nil {
		t.Fatalf("dir-synced rename lost: %v", err)
	}
	if string(data) != "snapshot" {
		t.Fatalf("recovered %q", data)
	}
	if _, err := fs.ReadFile("/d/snap.tmp"); err == nil {
		t.Fatal("renamed-away source still present after dir sync + crash")
	}
}

// TestFaultFSAppendAndReadAt covers the access paths the WAL uses: O_APPEND
// reopening, sequential read, and ReadAt.
func TestFaultFSAppendAndReadAt(t *testing.T) {
	fs := NewFaultFS(1, Mode{})
	f, _ := fs.OpenFile("/d/seg", os.O_CREATE|os.O_WRONLY, 0o644)
	f.Write([]byte("one"))
	f.Sync()
	f.Close()
	f, _ = fs.OpenFile("/d/seg", os.O_WRONLY|os.O_APPEND, 0o644)
	f.Write([]byte("two"))
	f.Sync()
	f.Close()

	r, err := fs.OpenFile("/d/seg", os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := r.ReadAt(buf, 3); err != nil && len(buf) != 3 {
		t.Fatal(err)
	}
	if string(buf) != "two" {
		t.Fatalf("ReadAt(3) = %q", buf)
	}
}

// TestFaultFSWriteExtendsInPlace: an append costs its own length, not a copy
// of the file (a WAL segment takes one small write per batch), so the file's
// image moves to a new array only as its capacity doubles; and a write past
// the end through a handle whose file was truncated under it still reads
// zeros in the gap.
func TestFaultFSWriteExtendsInPlace(t *testing.T) {
	fs := NewFaultFS(1, Mode{})
	f, _ := fs.OpenFile("/d/seg", os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	mf := f.(*faultFile).mf
	rec := bytes.Repeat([]byte{7}, 64)
	moves := 0
	var last *byte
	for i := 0; i < 1000; i++ {
		f.Write(rec)
		if p := &mf.cur[0]; p != last {
			moves, last = moves+1, p
		}
	}
	if moves > 50 {
		t.Fatalf("1000 appends of 64 bytes copied the file to %d new arrays, want it grown in place", moves)
	}

	g, _ := fs.OpenFile("/d/other", os.O_CREATE|os.O_WRONLY, 0o644)
	g.Write([]byte("abcdef"))
	trunc, _ := fs.OpenFile("/d/other", os.O_WRONLY|os.O_TRUNC, 0o644)
	trunc.Close()
	g.Write([]byte("gh"))
	got, _ := fs.ReadFile("/d/other")
	if want := []byte("\x00\x00\x00\x00\x00\x00gh"); !bytes.Equal(got, want) {
		t.Fatalf("file = %q, want %q", got, want)
	}
}
