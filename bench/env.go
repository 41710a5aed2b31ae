package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"codeletfft"
)

// fingerprint describes the environment a run measured. It is printed
// with the metrics and stored in the trace file; none of it reaches the
// program under test.
type fingerprint struct {
	CPU          string `json:"cpu"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Acceleration string `json:"acceleration"`
	GoVersion    string `json:"go_version"`
	L2           string `json:"l2"`
	L3           string `json:"l3"`
	SpillFS      string `json:"spill_fs"`
	Commit       string `json:"git_commit"`
}

func readFingerprint(outDir string) fingerprint {
	return fingerprint{
		CPU:          cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Acceleration: codeletfft.Acceleration(),
		GoVersion:    runtime.Version(),
		L2:           cacheSize(2),
		L3:           cacheSize(3),
		SpillFS:      fsName(outDir),
		Commit:       gitCommit(),
	}
}

func orUnknown(s string) string {
	if s = strings.TrimSpace(s); s == "" {
		return "unknown"
	}
	return s
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return orUnknown(v)
		}
	}
	return "unknown"
}

// cacheSize reads the size of cpu0's unified cache at the given level
// from sysfs.
func cacheSize(level int) string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, _ := os.ReadFile(filepath.Join(d, "level"))
		ty, _ := os.ReadFile(filepath.Join(d, "type"))
		if strings.TrimSpace(string(lv)) == string(rune('0'+level)) && strings.TrimSpace(string(ty)) == "Unified" {
			sz, _ := os.ReadFile(filepath.Join(d, "size"))
			return orUnknown(string(sz))
		}
	}
	return "unknown"
}

// fsName names the filesystem holding dir (or its nearest existing
// parent) by its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	for {
		if err := syscall.Statfs(dir, &st); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("magic-%#x", uint32(st.Type))
}

// gitCommit reads the checked-out commit from .git without running
// git; a checkout that is not a repository reports "unknown".
func gitCommit() string {
	dir, _ := os.Getwd()
	for {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			ref := strings.TrimSpace(string(head))
			if name, ok := strings.CutPrefix(ref, "ref: "); ok {
				b, err := os.ReadFile(filepath.Join(dir, ".git", name))
				if err != nil {
					return "unknown"
				}
				ref = string(b)
			}
			return orUnknown(ref)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}
