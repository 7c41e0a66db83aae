package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"ptatin3d/internal/model"
	"ptatin3d/internal/scenario"
)

// Provenance is the machine and input context recorded with every
// result.
type Provenance struct {
	// Commit is the git revision, or "" outside a git checkout;
	// SourceSHA256 hashes the Go sources the binary was built from and
	// identifies the code either way.
	Commit       string          `json:"commit"`
	SourceSHA256 string          `json:"source_sha256"`
	GoVersion    string          `json:"go_version"`
	GOMAXPROCS   int             `json:"gomaxprocs"`
	NumCPU       int             `json:"nproc"`
	Workers      int             `json:"workers"`
	CPUModel     string          `json:"cpu_model"`
	LLCBytes     int64           `json:"llc_bytes"`
	Seed         int64           `json:"seed"`
	Spec         json.RawMessage `json:"spec"`
	Stokes       StokesConfig    `json:"stokes_config"`
	Backend      string          `json:"backend"`
	Ranks        [3]int          `json:"ranks,omitempty"`
}

// StokesConfig is the serializable part of stokes.Config plus the
// nonlinear controls, as the compiled model resolved them.
type StokesConfig struct {
	Levels       int     `json:"levels"`
	FineKind     string  `json:"fine_kind"`
	SmoothSteps  int     `json:"smooth_steps"`
	CoarseSolver string  `json:"coarse_solver"`
	OuterMethod  string  `json:"outer_method"`
	Blocked      bool    `json:"blocked"`
	Precision    string  `json:"precision"`
	RTol         float64 `json:"rtol"`
	MaxIt        int     `json:"max_it"`
	Restart      int     `json:"restart"`
	NonlinearIt  int     `json:"nonlinear_max_it"`
	NonlinearTol float64 `json:"nonlinear_rtol"`
	UseNewton    bool    `json:"use_newton"`
}

func provenance(w workload, seed int64, spec scenario.Spec, m *model.Model) Provenance {
	specJSON, _ := json.Marshal(spec) // a Spec is plain data; Marshal cannot fail
	prm := m.Cfg.EffectiveParams()
	backend := "shared"
	if w.Distributed() {
		backend = "distributed"
	}
	return Provenance{
		Commit:       gitCommit(),
		SourceSHA256: sourceDigest(),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		Workers:      m.Workers,
		CPUModel:     cpuModel(),
		LLCBytes:     llcBytes(),
		Seed:         seed,
		Spec:         specJSON,
		Stokes: StokesConfig{
			Levels: m.Cfg.Levels, FineKind: m.Cfg.FineKind.String(),
			SmoothSteps: m.Cfg.SmoothSteps, CoarseSolver: m.Cfg.CoarseSolver,
			OuterMethod: m.Cfg.OuterMethod, Blocked: m.Cfg.Blocked,
			Precision: m.Cfg.Precision.String(),
			RTol:      prm.RTol, MaxIt: prm.MaxIt, Restart: prm.Restart,
			NonlinearIt: m.Nonlinear.MaxIt, NonlinearTol: m.Nonlinear.RTol,
			UseNewton: m.UseNewton,
		},
		Backend: backend,
		Ranks:   w.Ranks,
	}
}

// gitCommit reads the checked-out commit from ./.git without running
// git, or returns "" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return ref // detached HEAD
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return ""
}

// sourceDigest hashes go.mod and every .go file under internal/ and
// benchmark/ of the current directory, in path order.
func sourceDigest() string {
	var files []string
	for _, root := range []string{"internal", "benchmark"} {
		_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range append([]string{"go.mod"}, files...) {
		f, err := os.Open(p)
		if err != nil {
			return ""
		}
		io.WriteString(h, p)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return ""
		}
	}
	return hex.EncodeToString(h.Sum(nil))
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

// llcBytes returns the size of the highest-level cache of CPU 0 from
// sysfs, or 0 when unknown.
func llcBytes() int64 {
	var best, bestLevel int64
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, _ := strconv.ParseInt(strings.TrimSpace(string(lv)), 10, 64)
		size := parseSize(strings.TrimSpace(string(sz)))
		if level > bestLevel || (level == bestLevel && size > best) {
			best, bestLevel = size, level
		}
	}
	return best
}

func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, _ := strconv.ParseInt(s, 10, 64)
	return n * mult
}
