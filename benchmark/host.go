package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo names the machine a run was measured on.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"GOMAXPROCS"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	ClockNs    int64  `json:"clock_ns,omitempty"` // calibrated cost of one clock reading; traced runs only
}

const unknown = "unknown"

func host(gomaxprocs int, clockNs int64) hostInfo {
	h := hostInfo{CPU: unknown, NProc: runtime.NumCPU(), GOMAXPROCS: gomaxprocs,
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, ClockNs: clockNs}
	data, _ := os.ReadFile("/proc/cpuinfo") // absent off Linux: the CPU stays unknown
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
			break
		}
	}
	return h
}

// cpuClock reads how much processor time the kernel of this machine has handed
// out: to programs, to itself, and to idling. What is missing from it after an
// interval, against the interval's length times the processors, is time a
// processor had work to do and stood still because the hypervisor ran another
// machine on it. The kernel has a column for that too (steal), but books it
// when the processor comes back, which can be several slices later.
type cpuClock struct {
	f   *os.File
	buf [512]byte // the first line is the whole machine's; nothing else is read
}

// newCPUClock returns nil where there is no /proc/stat; a nil clock always
// reads 0, and no slice then looks disturbed.
func newCPUClock() *cpuClock {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return nil
	}
	return &cpuClock{f: f}
}

// read returns the processor time handed out since the machine started, all
// processors together, in ns.
func (c *cpuClock) read() int64 {
	if c == nil {
		return 0
	}
	n, _ := c.f.ReadAt(c.buf[:], 0) // a failed read leaves no line to parse: 0, as without the file
	return handedOutTicks(c.buf[:n]) * 10_000_000
}

// handedOutTicks adds up the first seven numbers of /proc/stat's first line,
//
//	cpu  user nice system idle iowait irq softirq steal guest guest_nice
//
// which are hundredths of a second (guest time is part of user and nice), and
// returns 0 if stat does not start with such a line. It allocates nothing: the
// readings are taken while <module>.alloc_b_per_op is counted.
func handedOutTicks(stat []byte) int64 {
	if !bytes.HasPrefix(stat, []byte("cpu ")) {
		return 0
	}
	var sum, number int64
	numbers, inNumber := 0, false
	for _, ch := range stat[4:] {
		switch {
		case ch >= '0' && ch <= '9':
			number, inNumber = number*10+int64(ch-'0'), true
		case inNumber:
			sum, number, inNumber = sum+number, 0, false
			numbers++
		}
		if numbers == 7 || ch == '\n' {
			break
		}
	}
	return sum
}

func (c *cpuClock) close() {
	if c != nil {
		c.f.Close()
	}
}

func loadavg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return unknown
	}
	return strings.Join(strings.Fields(string(data))[:3], " ")
}

// fsType returns the type of the file system dir is on: that of the longest
// mount point in /proc/mounts that contains it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return unknown
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return unknown
	}
	best, typ := "", unknown
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, typ = mount, f[2]
		}
	}
	return typ
}

// gitCommit reads the checked-out commit from .git without running git; a
// checkout that is not a repository yields unknown.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return unknown
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref // detached: HEAD holds the hash
	}
	if hash, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(hash))
	}
	packed, _ := os.ReadFile(".git/packed-refs") // absent: fall through to unknown
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, ok := strings.CutSuffix(line, " "+ref); ok {
			return hash
		}
	}
	return unknown
}
