package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// provenance is the host block printed with every result: the machine, the
// Go build and the int8 kernel path that produced the numbers.
func provenance() map[string]string {
	flags, model := cpuInfo()
	kernel := "Go"
	switch {
	case flags["avx512_vnni"] && flags["avx512bw"]:
		kernel = "VNNI"
	case flags["avx512bw"]:
		kernel = "AVX-512BW"
	}
	goamd64 := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				goamd64 = s.Value
			}
		}
	}
	return map[string]string{
		"cpu":         model,
		"nproc":       strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":  strconv.Itoa(runtime.GOMAXPROCS(0)),
		"goamd64":     goamd64,
		"int8_kernel": kernel, // derived from CPU flags: mat exports no selector
		"precision":   "mixed",
		"commit":      commit(),
		"go":          runtime.Version(),
	}
}

// cpuInfo reads the first processor's flags and model name.
func cpuInfo() (map[string]bool, string) {
	flags := map[string]bool{}
	model := "unknown"
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return flags, model
	}
	for _, line := range strings.Split(string(b), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if model == "unknown" {
				model = strings.TrimSpace(val)
			}
		case "flags":
			if len(flags) == 0 {
				for _, f := range strings.Fields(val) {
					flags[f] = true
				}
			}
		}
	}
	return flags, model
}

// commit names the source under test: the git commit when the working
// directory is the root of a repository, otherwise a hash of the Go sources
// and go.mod files under it. Git is not asked otherwise, so it never looks
// past the checkout for an enclosing repository.
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".s") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			h.Write([]byte(path + "\x00"))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
