package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// smokeOpts runs one solve (or one pair) of a workload's reduced
// instance against the repository this package sits in.
func smokeOpts(t *testing.T, traced, plant bool) runOpts {
	return runOpts{seed: 1, traced: traced, size: smokeSize, minSolves: 1,
		root: "..", tmp: t.TempDir(), plant: plant}
}

// lastResult renders a report as the command does and parses its last
// line back, so the test sees exactly what a caller of the command sees.
func lastResult(t *testing.T, r *report) result {
	t.Helper()
	var out bytes.Buffer
	if err := writeResult(&out, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range endToEndMetrics {
		want[false][m.name] = m.unit
	}
	for _, m := range layerMetrics {
		want[true][m.name] = m.unit
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			rep, err := measure(workloads[name], smokeOpts(t, traced, false))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			res := lastResult(t, rep)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%q",
					name, traced, res.Correct, res.Attempted, res.Failed, rep.notes)
			}
			if len(res.Metrics) != len(want[traced]) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want[traced]))
			}
			for n, unit := range want[traced] {
				got, ok := res.Metrics[n]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, n)
				case got.Unit != unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", name, traced, n, got.Unit, unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, n, got.Value)
				}
			}
		}
	}
}

func TestPlantedMismatchIsAFailedOperation(t *testing.T) {
	for _, name := range workloadNames() {
		rep, err := measure(workloads[name], smokeOpts(t, false, true))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res := lastResult(t, rep)
		if res.Correct || res.Attempted < 1 || res.Failed != res.Attempted {
			t.Errorf("%s: planted mismatch gave correct=%v attempted=%d failed=%d",
				name, res.Correct, res.Attempted, res.Failed)
		}
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "knn-mr", "--seconds", "0"},
		{"--workload", "knn-mr", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q", args, code, out.String())
		}
	}
}
