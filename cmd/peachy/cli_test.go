package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// recordRing records a fixed two-rank exchange on rank r's recorder:
// a Bcast, then a 64-byte send to the other rank and the matching
// receive. Every simulated time is a literal, so per-rank recordings
// and an in-process one agree bit for bit.
func recordRing(rec *obs.Recorder, r int) {
	base := float64(r)
	rec.Collective("Bcast", 0, base, base+0.5, rec.Now())
	rec.Send(1-r, 7, 64, base+0.5, base+0.6)
	rec.Recv(1-r, 7, 64, base+0.6, base+0.7, rec.Now())
}

// writeArtifacts writes a P=2 artifact set into dir: trace.json.rank0/1
// and metrics.json.rank0/1, each rank recorded alone as a launched rank
// would. It returns the in-process trace document of the same run.
func writeArtifacts(t *testing.T, dir string) []byte {
	t.Helper()
	write := func(name string, export func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := export(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 2; r++ {
		tr := obs.NewTrace(2)
		recordRing(tr.Rank(r), r)
		write("trace.json.rank"+strconv.Itoa(r), func(b *bytes.Buffer) error { return tr.WriteChrome(b) })
		write("metrics.json.rank"+strconv.Itoa(r), func(b *bytes.Buffer) error { return tr.WriteMetrics(b) })
	}
	whole := obs.NewTrace(2)
	for r := 0; r < 2; r++ {
		recordRing(whole.Rank(r), r)
	}
	var want bytes.Buffer
	if err := whole.WriteChrome(&want); err != nil {
		t.Fatal(err)
	}
	return want.Bytes()
}

// runCLI runs peachy with args and returns its exit code and output.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestObsCommands drives obs-lint and obs-merge end to end on a P=2
// artifact set: the set lints with its cross-checks, and the merged
// trace is byte-identical to the in-process document.
func TestObsCommands(t *testing.T) {
	dir := t.TempDir()
	want := writeArtifacts(t, dir)

	code, stdout, stderr := runCLI("obs-lint", filepath.Join(dir, "*.rank*"))
	if code != 0 {
		t.Fatalf("obs-lint exit %d, stderr:\n%s", code, stderr)
	}
	for _, base := range []string{"trace.json", "metrics.json"} {
		if !strings.Contains(stdout, filepath.Join(dir, base)+".rank* (2 ranks): cross-checks ok") {
			t.Errorf("obs-lint did not cross-check %s:\n%s", base, stdout)
		}
	}

	merged := filepath.Join(dir, "merged.json")
	code, stdout, stderr = runCLI("obs-merge", "-o", merged, filepath.Join(dir, "trace.json.rank*"))
	if code != 0 {
		t.Fatalf("obs-merge exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "merged 2 ranks into "+merged) {
		t.Errorf("obs-merge output: %q", stdout)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merged trace differs from the in-process document (%d vs %d bytes)", len(got), len(want))
	}
	if code, _, stderr := runCLI("obs-lint", merged); code != 0 {
		t.Errorf("merged trace fails obs-lint (exit %d):\n%s", code, stderr)
	}
}

// TestObsCommandsBadInput requires a missing file and a corrupt JSON file
// to fail each command with a non-zero exit and a diagnosis naming the
// problem, never a panic.
func TestObsCommandsBadInput(t *testing.T) {
	dir := t.TempDir()
	writeArtifacts(t, dir)
	missing := filepath.Join(dir, "absent.json")
	corrupt := filepath.Join(dir, "trace.json.rank1")
	if err := os.WriteFile(corrupt, []byte(`{"traceEvents": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"lint missing", []string{"obs-lint", missing}, "absent.json"},
		{"lint corrupt", []string{"obs-lint", corrupt}, "trace.json.rank1: not a JSON object"},
		{"merge missing", []string{"obs-merge", "-o", filepath.Join(dir, "m.json"), missing + ".rank0"}, "absent.json.rank0"},
		{"merge corrupt", []string{"obs-merge", "-o", filepath.Join(dir, "m.json"), filepath.Join(dir, "trace.json.rank*")}, "doc 1: not a JSON object"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := runCLI(tc.args...)
			if code == 0 {
				t.Fatalf("exit 0 on bad input, stderr:\n%s", stderr)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("diagnosis does not mention %q:\n%s", tc.want, stderr)
			}
		})
	}
}
