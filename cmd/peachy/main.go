// Command peachy is the umbrella tool for the Peachy Parallel Assignments
// reproduction. Its main job is regenerating the paper's exhibits:
//
//	peachy list                 # show every exhibit id
//	peachy repro                # regenerate all exhibits into ./out
//	peachy repro -quick         # smaller instances (seconds, not minutes)
//	peachy repro -only fig3     # one exhibit
//	peachy repro -out /tmp/out  # choose the output directory
//	peachy vet ./...            # SPMD correctness analysis (peachyvet)
//
// It is also the multi-process world launcher (the repo's mpirun):
//
//	peachy launch -np 4 ./out/kmeans -distributed ...
//
// spawns 4 copies of the binary, each holding one rank on the net
// device, wired over loopback sockets via the PEACHY_* env contract
// that cluster.OpenWorld reads. The observability artifacts such a run
// writes per rank are stitched back together with
//
//	peachy obs-merge out/trace.json.rank*
//
// and validated (per file, plus cross-file conservation for complete
// rank sets) with `peachy obs-lint`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/cluster/launch"
	"repro/internal/core"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one peachy command and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "peachy:", err)
		return 1
	}
	switch args[0] {
	case "verify":
		passed, total, lines := core.RunChecks()
		for _, l := range lines {
			fmt.Fprintln(stdout, l)
		}
		fmt.Fprintf(stdout, "\n%d/%d acceptance checks passed\n", passed, total)
		if passed != total {
			return 1
		}
	case "vet":
		return analysis.Main(args[1:], stdout, stderr)
	case "launch":
		fs := flag.NewFlagSet("launch", flag.ExitOnError)
		np := fs.Int("np", 4, "number of ranks (one process per rank)")
		netw := fs.String("net", "unix", "transport: unix (socket files) | tcp (loopback ports)")
		raw := fs.Bool("raw-output", false, "do not prefix non-root ranks' output lines with [rank r]")
		obsListen := fs.String("obs-listen", "", "serve each rank's live /metrics, /healthz and pprof: rank r listens on this address with the port offset by r")
		_ = fs.Parse(args[1:])
		if fs.NArg() == 0 {
			fmt.Fprintln(stderr, "peachy launch: no program given (usage: peachy launch -np 4 [-net unix|tcp] prog args...)")
			return 2
		}
		if err := launch.Run(launch.Config{
			NP: *np, Network: *netw, Argv: fs.Args(), Prefix: !*raw,
			ObsListen: *obsListen,
		}); err != nil {
			return fail(err)
		}
	case "obs-lint":
		paths, err := expandArtifacts(args[1:])
		if err != nil {
			return fail(fmt.Errorf("obs-lint: %w", err))
		}
		if len(paths) == 0 {
			fmt.Fprintln(stderr, "peachy obs-lint: no files given")
			return 2
		}
		bad := 0
		blobs := map[string][]byte{}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err == nil {
				err = obs.LintFile(data)
			}
			if err != nil {
				fmt.Fprintf(stderr, "peachy obs-lint: %s: %v\n", path, err)
				bad++
				continue
			}
			blobs[path] = data
			fmt.Fprintf(stdout, "%s: ok\n", path)
		}
		// Cross-file pass: any complete per-rank set among the inputs gets
		// the merged-run lint — world-size agreement, rank ownership, and
		// send/recv conservation across the documents.
		bases, groups := rankGroups(paths)
		for _, base := range bases {
			docs := make([][]byte, 0, len(groups[base]))
			for _, p := range groups[base] {
				if blobs[p] == nil {
					docs = nil // a member already failed its own lint
					break
				}
				docs = append(docs, blobs[p])
			}
			if docs == nil {
				continue
			}
			if err := obs.LintMerged(docs); err != nil {
				fmt.Fprintf(stderr, "peachy obs-lint: %s.rank*: %v\n", base, err)
				bad++
				continue
			}
			fmt.Fprintf(stdout, "%s.rank* (%d ranks): cross-checks ok\n", base, len(docs))
		}
		if bad > 0 {
			return 1
		}
	case "obs-merge":
		fs := flag.NewFlagSet("obs-merge", flag.ExitOnError)
		outPath := fs.String("o", "", "output path (default: the input base path, .rank* stripped)")
		noLint := fs.Bool("no-lint", false, "skip the LintMerged cross-checks before writing")
		_ = fs.Parse(args[1:])
		paths, err := expandArtifacts(fs.Args())
		if err != nil {
			return fail(fmt.Errorf("obs-merge: %w", err))
		}
		if len(paths) == 0 {
			fmt.Fprintln(stderr, "peachy obs-merge: no files given (usage: peachy obs-merge [-o out.json] trace.json.rank*)")
			return 2
		}
		base, ordered, err := rankSeries(paths)
		if err != nil {
			return fail(fmt.Errorf("obs-merge: %w", err))
		}
		docs := make([][]byte, len(ordered))
		for r, p := range ordered {
			if docs[r], err = os.ReadFile(p); err != nil {
				return fail(fmt.Errorf("obs-merge: %w", err))
			}
		}
		if !*noLint {
			if err := obs.LintMerged(docs); err != nil {
				return fail(fmt.Errorf("obs-merge: %v", err))
			}
		}
		dst := *outPath
		if dst == "" {
			dst = base
		}
		f, err := os.Create(dst)
		if err != nil {
			return fail(fmt.Errorf("obs-merge: %w", err))
		}
		if err := obs.Merge(f, docs); err != nil {
			f.Close()
			return fail(fmt.Errorf("obs-merge: %w", err))
		}
		if err := f.Close(); err != nil {
			return fail(fmt.Errorf("obs-merge: %w", err))
		}
		fmt.Fprintf(stdout, "merged %d ranks into %s\n", len(docs), dst)
	case "list":
		for _, e := range core.AllExhibits() {
			fmt.Fprintf(stdout, "%-7s %s\n", e.ID, e.Title)
		}
	case "repro":
		fs := flag.NewFlagSet("repro", flag.ExitOnError)
		out := fs.String("out", "out", "output directory for artifacts")
		quick := fs.Bool("quick", false, "shrink instance sizes for a fast pass")
		only := fs.String("only", "", "regenerate a single exhibit id (see `peachy list`)")
		_ = fs.Parse(args[1:])
		if *only != "" {
			e, ok := core.Find(*only)
			if !ok {
				fmt.Fprintf(stderr, "peachy: unknown exhibit %q\n", *only)
				return 1
			}
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return fail(err)
			}
			summary, err := e.Run(*out, *quick)
			if err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "# %s — %s\n\n%s\n", e.ID, e.Title, summary)
			return 0
		}
		if err := core.RunAll(*out, *quick); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "all exhibits regenerated into %s (see repro_report.md)\n", *out)
	default:
		usage(stderr)
		return 2
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  peachy list
  peachy repro [-out dir] [-quick] [-only id]
  peachy verify
  peachy vet [-rules r1,r2] [-q] [-json|-sarif] [./... | dir ...]
  peachy obs-lint trace-or-metrics.json ...       (globs ok; complete .rank* sets get cross-file checks)
  peachy obs-merge [-o out.json] [-no-lint] trace.json.rank*
  peachy launch -np 4 [-net unix|tcp] [-raw-output] [-obs-listen host:port] prog args...`)
}
