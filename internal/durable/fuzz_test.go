package durable

// What recovery reads from disk, fed hostile bytes: the WAL record and
// snapshot decoders, and Open over a fuzzed log. Malformed input must come
// back as an error, never a panic. The seeds run as ordinary tests; go test
// -fuzz explores from them.

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/objmodel"
	"repro/internal/stmapi"
	"repro/internal/vfs"
)

// hostileRef is an object handle at 2^63, which a signed bounds check in
// recovery once let through to an out-of-range heap lookup.
const hostileRef objmodel.Ref = 1 << 63

var (
	epochFrame   = appendRecord(nil, &record{Kind: kindEpoch, Epoch: 1})
	commitFrame  = appendRecord(nil, &record{Kind: kindCommit, Epoch: 1, TxnID: 2, Stamp: 3, Writes: []stmapi.RedoWrite{{Ref: 1, Slot: 2, Val: 7}}})
	hostileFrame = appendRecord(nil, &record{Kind: kindCommit, Epoch: 1, TxnID: 2, Stamp: 3, Writes: []stmapi.RedoWrite{{Ref: hostileRef, Val: 1}}})
)

// writeFile stores data, synced, as name on fs.
func writeFile(t testing.TB, fs vfs.FS, name string, data []byte) {
	t.Helper()
	f, err := fs.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// openBankOn opens whatever fs holds in /d over the bank heap.
func openBankOn(fs vfs.FS) (*Store, error) {
	return Open(Options{Dir: "/d", FS: fs, Runtime: "eager", NoOpenCheckpoint: true}, func(h *objmodel.Heap) error {
		h.NewArray(bankAccounts, false)
		return nil
	})
}

// TestOpenRejectsOutOfHeapRef: a CRC-valid WAL record or snapshot image
// naming an object at 2^63 is refused as not in the setup heap.
func TestOpenRejectsOutOfHeapRef(t *testing.T) {
	for _, c := range []struct {
		name  string
		write func(*testing.T, vfs.FS)
	}{
		{"wal", func(t *testing.T, fs vfs.FS) {
			writeFile(t, fs, "/d/"+segName(1), bytes.Join([][]byte{epochFrame, hostileFrame}, nil))
		}},
		{"snapshot", func(t *testing.T, fs vfs.FS) {
			img := objImage{Ref: hostileRef, Vals: make([]uint64, bankAccounts)}
			if err := writeSnapshot(fs, "/d", nil, &snapshot{Epoch: 1, Stamp: 1, SegIndex: 1, Objs: []objImage{img}}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs := NewTestFS()
			c.write(t, fs)
			s, err := openBankOn(fs)
			if err == nil {
				s.Close()
				t.Fatal("recovery accepted an object outside the heap")
			}
			if !strings.Contains(err.Error(), "not in setup heap") {
				t.Fatalf("err = %v, want the not-in-setup-heap error", err)
			}
		})
	}
}

// FuzzDecodeRecord: decoding never panics, and a record that decodes
// re-encodes to exactly the bytes it was decoded from.
func FuzzDecodeRecord(f *testing.F) {
	for _, seed := range [][]byte{nil, epochFrame, commitFrame, hostileFrame, commitFrame[:len(commitFrame)-1]} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, n, err := decodeRecord(b)
		if err != nil {
			return
		}
		if got := appendRecord(nil, &r); !bytes.Equal(got, b[:n]) {
			t.Fatalf("re-encoded %x, decoded from %x", got, b[:n])
		}
	})
}

// FuzzDecodeSnapshot: the same for snapshot images.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, s := range []*snapshot{
		{Epoch: 1, Stamp: 2, SegIndex: 3},
		{Epoch: 2, Stamp: 55, SegIndex: 3, Objs: []objImage{{Ref: 1, Vals: []uint64{9, 8}}, {Ref: 2, Vals: []uint64{}}}},
		{Epoch: 1, Stamp: 1, SegIndex: 1, Objs: []objImage{{Ref: hostileRef, Vals: []uint64{1}}}},
	} {
		f.Add(encodeSnapshot(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := decodeSnapshot(b)
		if err != nil {
			return
		}
		if got := encodeSnapshot(s); len(got) > len(b) || !bytes.Equal(got, b[:len(got)]) {
			t.Fatalf("re-encoded %x, decoded from %x", got, b)
		}
	})
}

// FuzzRecover: Open over a store whose only file is a fuzzed first WAL
// segment yields a store or an error.
func FuzzRecover(f *testing.F) {
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	for _, seed := range [][]byte{
		epochFrame,
		cat(epochFrame, commitFrame),
		cat(epochFrame, hostileFrame),
		cat(epochFrame, commitFrame[:len(commitFrame)-3]), // torn tail
		cat(epochFrame, commitFrame, []byte("garbage")),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, wal []byte) {
		fs := NewTestFS()
		writeFile(t, fs, "/d/"+segName(1), wal)
		if s, err := openBankOn(fs); err == nil {
			s.Close()
		}
	})
}
