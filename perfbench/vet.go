package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/analysis"
)

// vetPackages are the assignment packages peachy vet is pointed at.
func vetPackages(sz size) []string {
	if sz == smokeSize {
		return []string{"internal/heat"}
	}
	return []string{"internal/knn", "internal/kmeans", "internal/traffic",
		"internal/heat", "internal/pipeline", "internal/ensemble"}
}

func vetParams(sz size) map[string]any {
	return map[string]any{"packages": vetPackages(sz), "config": "DefaultConfig"}
}

type vetInst struct {
	dirs     []string
	lines    int
	units    int
	findings []analysis.Finding
	wantN    int // units the load must yield
	// stage times of the last traced solve
	loadS, typesS, rulesS, childCPU float64
}

// setupVet resolves the packages in the checkout and counts their lines;
// the source at the measured commit is the input.
func setupVet(o runOpts) (instance, error) {
	v := &vetInst{}
	for _, p := range vetPackages(o.size) {
		dir := filepath.Join(o.root, p)
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("vet-assign: no Go files in %s", dir)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			v.lines += bytes.Count(data, []byte("\n"))
		}
		v.dirs = append(v.dirs, dir)
	}
	v.wantN = len(v.dirs)
	return v, nil
}

// solve is peachy vet's path: load, then every rule of DefaultConfig.
// The traced solve splits it into the load, a first pass with only
// lockcopy enabled (which forces type-checking) and the full pass.
func (v *vetInst) solve(traced bool) error {
	child := rusage(syscall.RUSAGE_CHILDREN)
	start := time.Now()
	units, err := analysis.Load(v.dirs)
	if err != nil {
		return err
	}
	v.units, v.findings = len(units), nil
	if traced {
		v.loadS = time.Since(start).Seconds()
		start = time.Now()
		cfg := analysis.DefaultConfig()
		cfg.Rules = map[string]bool{"lockcopy": true}
		for _, u := range units {
			analysis.Analyze(u, cfg)
		}
		v.typesS = time.Since(start).Seconds()
		start = time.Now()
	}
	for _, u := range units {
		v.findings = append(v.findings, analysis.Analyze(u, analysis.DefaultConfig())...)
	}
	if traced {
		v.rulesS = time.Since(start).Seconds()
		v.childCPU = rusage(syscall.RUSAGE_CHILDREN) - child
	}
	return nil
}

func (v *vetInst) check() error {
	if v.units != v.wantN {
		return fmt.Errorf("vet-assign: %d units loaded, want %d", v.units, v.wantN)
	}
	if len(v.findings) > 0 {
		msgs := make([]string, len(v.findings))
		for i, f := range v.findings {
			msgs[i] = f.String()
		}
		return fmt.Errorf("vet-assign: %d findings: %s", len(v.findings), strings.Join(msgs, "; "))
	}
	return nil
}

func (v *vetInst) plant() { v.wantN++ }

func (v *vetInst) attach() error { return nil }

func (v *vetInst) collect(s samples) error {
	s.add("analysis.load_s", v.loadS)
	s.add("analysis.types_s", v.typesS)
	s.add("analysis.rules_s", v.rulesS)
	s.add("analysis.child_cpu_s", v.childCPU)
	s.add("analysis.units", float64(v.units))
	s.add("analysis.lines", float64(v.lines))
	return nil
}

func (v *vetInst) reference(samples) error { return nil }

func (v *vetInst) close() error { return nil }
