package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/objmodel"
	"repro/internal/vfs"
)

// snapMagic starts every snapshot file ("SN1\n").
const snapMagic uint32 = 0x534e310a

// objImage is one object's slot values in a heap image.
type objImage struct {
	Ref  objmodel.Ref
	Vals []uint64
}

// snapshot is a consistent committed heap image plus the metadata recovery
// needs: the epoch that wrote it, the commit-clock stamp its contents are
// current to, and the WAL segment index replay must resume from (every
// segment with a smaller index is fully covered by the image).
type snapshot struct {
	Epoch    uint64
	Stamp    uint64
	SegIndex int
	Objs     []objImage
}

const snapPrefix = "snap-"

func snapName(segIndex int, stamp uint64) string {
	return fmt.Sprintf("%s%06d-%016x.snap", snapPrefix, segIndex, stamp)
}

// parseSnapName extracts (segIndex, stamp) from a snapshot file name.
func parseSnapName(name string) (segIndex int, stamp uint64, ok bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, ".snap") {
		return 0, 0, false
	}
	body := strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), ".snap")
	dash := strings.IndexByte(body, '-')
	if dash < 0 {
		return 0, 0, false
	}
	seg, err := strconv.Atoi(body[:dash])
	if err != nil || seg < 1 {
		return 0, 0, false
	}
	st, err := strconv.ParseUint(body[dash+1:], 16, 64)
	if err != nil {
		return 0, 0, false
	}
	return seg, st, true
}

// encodeSnapshot serializes s: u32 magic | u32 payload len | u32 crc | payload.
// Payload: u64 epoch | u64 stamp | u64 segIndex | u64 nobjs |
// nobjs × (u64 ref | u32 nslots | nslots × u64).
func encodeSnapshot(s *snapshot) []byte {
	payloadLen := 32
	for _, o := range s.Objs {
		payloadLen += 12 + 8*len(o.Vals)
	}
	buf := make([]byte, recordHeaderLen+payloadLen)
	binary.LittleEndian.PutUint32(buf[0:], snapMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(payloadLen))
	p := buf[recordHeaderLen:]
	binary.LittleEndian.PutUint64(p[0:], s.Epoch)
	binary.LittleEndian.PutUint64(p[8:], s.Stamp)
	binary.LittleEndian.PutUint64(p[16:], uint64(s.SegIndex))
	binary.LittleEndian.PutUint64(p[24:], uint64(len(s.Objs)))
	off := 32
	for _, o := range s.Objs {
		binary.LittleEndian.PutUint64(p[off:], uint64(o.Ref))
		binary.LittleEndian.PutUint32(p[off+8:], uint32(len(o.Vals)))
		off += 12
		for _, v := range o.Vals {
			binary.LittleEndian.PutUint64(p[off:], v)
			off += 8
		}
	}
	binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(p))
	return buf
}

// decodeSnapshot validates and parses a snapshot file image.
func decodeSnapshot(b []byte) (*snapshot, error) {
	if len(b) < recordHeaderLen {
		return nil, errCorruptRecord
	}
	if binary.LittleEndian.Uint32(b[0:]) != snapMagic {
		return nil, errCorruptRecord
	}
	payloadLen := int(binary.LittleEndian.Uint32(b[4:]))
	if payloadLen < 32 || len(b) < recordHeaderLen+payloadLen {
		return nil, errCorruptRecord
	}
	p := b[recordHeaderLen : recordHeaderLen+payloadLen]
	if crc32.ChecksumIEEE(p) != binary.LittleEndian.Uint32(b[8:]) {
		return nil, errCorruptRecord
	}
	s := &snapshot{
		Epoch:    binary.LittleEndian.Uint64(p[0:]),
		Stamp:    binary.LittleEndian.Uint64(p[8:]),
		SegIndex: int(binary.LittleEndian.Uint64(p[16:])),
	}
	nobjs := binary.LittleEndian.Uint64(p[24:])
	off := 32
	for i := uint64(0); i < nobjs; i++ {
		if off+12 > payloadLen {
			return nil, errCorruptRecord
		}
		o := objImage{Ref: objmodel.Ref(binary.LittleEndian.Uint64(p[off:]))}
		n := int(binary.LittleEndian.Uint32(p[off+8:]))
		off += 12
		if off+8*n > payloadLen {
			return nil, errCorruptRecord
		}
		o.Vals = make([]uint64, n)
		for j := range o.Vals {
			o.Vals[j] = binary.LittleEndian.Uint64(p[off:])
			off += 8
		}
		s.Objs = append(s.Objs, o)
	}
	if off != payloadLen { // bytes no object accounts for: not an encoder's output
		return nil, errCorruptRecord
	}
	return s, nil
}

// writeSnapshot persists s atomically: write to a .tmp, fsync the file,
// rename it into place, fsync the directory. The WALRename injection point
// fires between the file fsync and the rename — killing there must leave the
// previous snapshot (or none) intact, which recovery tolerates by replaying
// a longer WAL tail.
func writeSnapshot(fs vfs.FS, dir string, inj *faultinject.Injector, s *snapshot) error {
	final := filepath.Join(dir, snapName(s.SegIndex, s.Stamp))
	tmp := final + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(encodeSnapshot(s)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if inj != nil {
		inj.Fire(faultinject.WALRename, s.Stamp)
	}
	if err := fs.Rename(tmp, final); err != nil {
		return err
	}
	return fs.SyncDir(dir)
}

// loadBestSnapshot returns the newest decodable snapshot in dir (highest
// (segIndex, stamp) whose checksum validates), or nil if none exists.
// Corrupt candidates are skipped, not fatal: a crash mid-snapshot leaves a
// valid older image behind.
func loadBestSnapshot(fs vfs.FS, dir string) (*snapshot, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type cand struct {
		name  string
		seg   int
		stamp uint64
	}
	var cands []cand
	for _, name := range names {
		if seg, stamp, ok := parseSnapName(name); ok {
			cands = append(cands, cand{name, seg, stamp})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].seg != cands[j].seg {
			return cands[i].seg > cands[j].seg
		}
		return cands[i].stamp > cands[j].stamp
	})
	for _, c := range cands {
		data, err := fs.ReadFile(filepath.Join(dir, c.name))
		if err != nil {
			continue
		}
		if s, err := decodeSnapshot(data); err == nil {
			return s, nil
		}
	}
	return nil, nil
}
