// Command perfbench is the suite's end-to-end benchmark. One invocation
// runs one workload for a fixed measuring time, checks every result
// outside the timed region, and prints a single JSON result line:
//
//	perfbench --workload knn-mr --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken by timing the calls
// into each layer and by attaching the obs recorders through their
// public API. README.md documents the workloads, the metrics and how
// they relate. It is normally started through run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// heldOutSeed is the seed no tuning used: a claimed gain must also hold
// on it (see README.md).
const heldOutSeed = 9001

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed every input generator is derived from")
	seconds := fs.Float64("seconds", 10, "measuring time of one run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	opts := runOpts{
		seed:    *seed,
		measure: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		size:    fullSize,
		root:    ".",
		tmp:     filepath.Join(".bench_build", "tmp"),
	}
	fmt.Fprintln(stdout, provenanceLine(*name, w, opts))
	res, err := measure(w, opts)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// writeResult prints a human-readable table of the metrics and any
// notes, then the JSON result as the last line.
func writeResult(w io.Writer, r *report) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "# %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	line, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
