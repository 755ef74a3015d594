package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// workloads are the five benchmark scenarios. The first three split the
// cluster, kernel, data-engine and wire layers between them; the last
// two measure the locale substrate and the analyzer, which nothing else
// exercises. BENCHMARK.json gates all but heat-coforall, which is too
// unsteady on a shared host and is run by hand. README.md gives the
// reasoning in full.
var workloads = map[string]workload{
	"knn-mr": {
		why:    "§2 kNN through knn.MapReduce with the combiner on a 2-rank in-process world, sixteen data sets a solve: kernels and the mapreduce engine",
		params: knnParams,
		setup:  setupKNN,
		// One solve is sixteen calls, about 13 s on one core.
		minSolves: 2,
	},
	"traffic-net": {
		why:    "§5 Fig 3 traffic on a 2-rank unix-socket net world: two 8-byte halo messages a step, so the wire path dominates",
		params: trafficParams,
		setup:  setupTraffic,
	},
	"nyc-rdd": {
		why:    "§4 Fig 2 crime pipeline over a synthetic city: rdd stages and shuffles, par workers, CSV parsing, point-in-polygon",
		params: nycParams,
		setup:  setupNYC,
	},
	"heat-coforall": {
		why:    "§6 part 2 heat with persistent Coforall tasks on 2 locales: two barrier waits a step, so synchronisation dominates",
		params: heatParams,
		setup:  setupHeat,
		// Its subject is the barrier between two cores.
		procs: 2,
	},
	"vet-assign": {
		why:    "peachy vet over the six assignment packages: analyzer load, type-checking with go list children, rules",
		params: vetParams,
		setup:  setupVet,
		// Its peak RSS grows with every solve (see README.md), so every
		// run makes the same number, whatever the solves take.
		minSolves: 4,
		maxSolves: 4,
	},
}

// derive gives each input generator of a workload its own stream, all
// determined by the benchmark seed (splitmix64 finaliser).
func derive(seed uint64, stream uint64) uint64 {
	z := seed + stream*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// provenanceLine describes where and on what a result was measured.
func provenanceLine(name string, w workload, o runOpts) string {
	host, _ := os.Hostname()
	p := map[string]any{
		"workload":      name,
		"seed":          o.seed,
		"held_out_seed": heldOutSeed,
		"seconds":       o.measure.Seconds(),
		"trace":         o.traced,
		"host":          host,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    map[string]int{"setup": runtime.GOMAXPROCS(0), "solve": w.gomaxprocs()},
		"go":            runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceDigest(o.root),
		"params":        w.params(o.size),
	}
	line, err := json.Marshal(map[string]any{"provenance": p})
	if err != nil {
		return `{"provenance":{}}`
	}
	return string(line)
}

// commit is the VCS revision the binary was built from, when it was
// built inside a repository.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources and go.mod under root, so
// that a result names the code it measured even outside a repository.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "out") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		io.WriteString(h, filepath.ToSlash(rel)+"\x00")
		if data, err := os.ReadFile(f); err == nil {
			h.Write(data)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
