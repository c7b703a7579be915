package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// hostRecord identifies where and on what code a result was measured.
// Results from different hosts are not comparable.
type hostRecord struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	// Commit is the VCS revision the binary was built from, or
	// "unknown" outside a git checkout; Source is a digest of the Go
	// sources under test, which identifies the code either way.
	Commit string `json:"commit"`
	Source string `json:"source"`
}

func currentHost() hostRecord {
	h := hostRecord{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, modified := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if rev != "" {
			h.Commit = rev
			if modified {
				h.Commit += "+modified"
			}
		}
	}
	return h
}

// sameHost reports whether two records were measured on the same
// machine type and toolchain (the code may differ: that is what a
// comparison is for).
func (h hostRecord) sameHost(o hostRecord) bool {
	return h.CPU == o.CPU && h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion
}

func (h hostRecord) String() string {
	return fmt.Sprintf("host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Source)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the module's Go sources and go.mod files under
// root, in path order, skipping hidden directories and the build
// directory.
func sourceDigest(root string) string {
	var paths []string
	// Unreadable entries are skipped, not fatal: the digest identifies
	// the sources it could read.
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == buildDir) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// record is one saved result with its host.
type record struct {
	Host     hostRecord `json:"host"`
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Trace    int        `json:"trace"`
	Result   *result    `json:"result"`
}

// saveRecord writes the result with its host record under
// .bench_build/results, one file per workload, seed and mode.
func saveRecord(h hostRecord, workload string, seed int64, trace int, res *result) error {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(record{h, workload, seed, trace, res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, trace)), b, 0o644)
}

// compareRecords prints each metric of two saved records side by side.
// It refuses (exit code 2) when the records come from different hosts
// or workloads, since their numbers are not comparable.
func compareRecords(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "sensorbench: --compare wants two result files")
		return 1
	}
	var recs [2]record
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &recs[i])
		}
		if err != nil || recs[i].Result == nil {
			fmt.Fprintf(os.Stderr, "sensorbench: %s: not a result record (%v)\n", p, err)
			return 1
		}
	}
	a, b := recs[0], recs[1]
	fmt.Println("a", a.Host)
	fmt.Println("b", b.Host)
	if !a.Host.sameHost(b.Host) {
		fmt.Fprintln(os.Stderr, "sensorbench: refused: the records come from different hosts")
		return 2
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintln(os.Stderr, "sensorbench: refused: the records measure different workloads or modes")
		return 2
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma, mb := a.Result.Metrics[n], b.Result.Metrics[n]
		fmt.Printf("%-44s %14.4f %14.4f %-8s %+7.1f%%\n", n, ma.Value, mb.Value, ma.Unit, 100*(ratio(mb.Value, ma.Value)-1))
	}
	return 0
}
