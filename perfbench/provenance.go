package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// provenance records where a run's numbers came from: host, toolchain,
// code and the filesystem each data directory sits on.
func provenance(res *result, cfg config, w *workloadRun) {
	res.note("seed %d, workload %s, %d s of work", cfg.seed, cfg.workload, cfg.seconds)
	res.note("cpu %q, NumCPU %d, generator GOMAXPROCS %d, tbsd GOMAXPROCS %d (its CPU affinity; no GOMAXPROCS or GOGC in its environment)",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), affinityCPUs())
	res.note("go %s, kernel %s, commit %s, tbsd sha256 %s", runtime.Version(), kernel(), commit(), fileHash(cfg.tbsd))
	res.note("data directory %s on %s", w.root, fsType(w.root))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// affinityCPUs is the CPU count the Go runtime in the child defaults
// GOMAXPROCS to: the size of the affinity mask it inherits from us.
func affinityCPUs() int {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return runtime.NumCPU()
	}
	for _, line := range strings.Split(string(b), "\n") {
		list, ok := strings.CutPrefix(line, "Cpus_allowed_list:")
		if !ok {
			continue
		}
		n := 0
		for _, r := range strings.Split(strings.TrimSpace(list), ",") {
			lo, hi, found := strings.Cut(r, "-")
			a, err1 := strconv.Atoi(lo)
			z, err2 := strconv.Atoi(hi)
			switch {
			case err1 != nil:
				return runtime.NumCPU()
			case !found:
				n++
			case err2 == nil:
				n += z - a + 1
			}
		}
		return n
	}
	return runtime.NumCPU()
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

func fileHash(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem a directory lives on.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}
