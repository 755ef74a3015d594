package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSplitRankPath(t *testing.T) {
	cases := []struct {
		path string
		base string
		rank int
		ok   bool
	}{
		{"t.json.rank0", "t.json", 0, true},
		{"out/t.json.rank12", "out/t.json", 12, true},
		{"t.json.rank007", "t.json", 7, true},
		{"a.rank1.rank2", "a.rank1", 2, true},
		{"t.json", "", 0, false},
		{"t.json.rank", "", 0, false},
		{"t.json.rankX", "", 0, false},
		{"t.json.rank-1", "", 0, false},
		{"t.json.rank1x", "", 0, false},
		{"t.json.rank99999999999999999999", "", 0, false}, // overflows int
	}
	for _, tc := range cases {
		base, rank, ok := splitRankPath(tc.path)
		if base != tc.base || rank != tc.rank || ok != tc.ok {
			t.Errorf("splitRankPath(%q) = (%q, %d, %v), want (%q, %d, %v)",
				tc.path, base, rank, ok, tc.base, tc.rank, tc.ok)
		}
	}
}

func TestRankSeries(t *testing.T) {
	cases := []struct {
		name    string
		paths   []string
		base    string
		ordered []string
		err     string // substring of the expected error; "" = success
	}{
		{"complete", []string{"t.rank1", "t.rank0"}, "t", []string{"t.rank0", "t.rank1"}, ""},
		{"numeric order", []string{"t.rank10", "t.rank2", "t.rank0", "t.rank1", "t.rank3", "t.rank4",
			"t.rank5", "t.rank6", "t.rank7", "t.rank8", "t.rank9"}, "t",
			[]string{"t.rank0", "t.rank1", "t.rank2", "t.rank3", "t.rank4", "t.rank5",
				"t.rank6", "t.rank7", "t.rank8", "t.rank9", "t.rank10"}, ""},
		{"single rank", []string{"t.rank0"}, "t", []string{"t.rank0"}, ""},
		{"gap", []string{"t.rank0", "t.rank2"}, "", nil, "no rank 1"},
		{"missing rank 0", []string{"t.rank1"}, "", nil, "no rank 0"},
		{"duplicate", []string{"t.rank0", "t.rank1", "t.rank1"}, "", nil, "rank 1 appears twice"},
		{"duplicate spelled twice", []string{"t.rank0", "t.rank1", "t.rank01"}, "", nil, "rank 1 appears twice"},
		{"non-numeric", []string{"t.rank0", "t.rankA"}, "", nil, "not a per-rank artifact"},
		{"negative", []string{"t.rank0", "t.rank-1"}, "", nil, "not a per-rank artifact"},
		{"no suffix", []string{"t.json"}, "", nil, "not a per-rank artifact"},
		{"mixed sets", []string{"a.rank0", "b.rank1"}, "", nil, "mixed artifact sets"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, ordered, err := rankSeries(tc.paths)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("rankSeries(%v) error = %v, want one containing %q", tc.paths, err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("rankSeries(%v): %v", tc.paths, err)
			}
			if base != tc.base || !reflect.DeepEqual(ordered, tc.ordered) {
				t.Errorf("rankSeries(%v) = (%q, %v), want (%q, %v)", tc.paths, base, ordered, tc.base, tc.ordered)
			}
		})
	}
}

func TestRankGroups(t *testing.T) {
	paths := []string{
		"d.rank1", "a.rank0", "plain.json", "b.rank0", // b: a single file is not a set
		"c.rank0", "c.rank2", // c: a gap leaves the set incomplete
		"a.rank1", "d.rank0", "e.rankZ", "a.rank2",
	}
	bases, groups := rankGroups(paths)
	if want := []string{"a", "d"}; !reflect.DeepEqual(bases, want) {
		t.Errorf("bases = %v, want %v", bases, want)
	}
	want := map[string][]string{
		"a": {"a.rank0", "a.rank1", "a.rank2"},
		"d": {"d.rank0", "d.rank1"},
	}
	if !reflect.DeepEqual(groups, want) {
		t.Errorf("groups = %v, want %v", groups, want)
	}
	if bases, groups := rankGroups(nil); len(bases) != 0 || len(groups) != 0 {
		t.Errorf("rankGroups(nil) = %v, %v; want nothing", bases, groups)
	}
}

func TestExpandArtifacts(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"t.json.rank1", "t.json.rank0", "t.json.rank10", "m.json.rank0"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	in := func(names ...string) []string {
		out := make([]string, len(names))
		for i, n := range names {
			out[i] = filepath.Join(dir, n)
		}
		return out
	}
	cases := []struct {
		name string
		args []string
		want []string
		err  string
	}{
		{"literal paths pass through unchecked", in("x", "t.json.rank0"), in("x", "t.json.rank0"), ""},
		{"glob sorted", in("t.json.rank*"), in("t.json.rank0", "t.json.rank1", "t.json.rank10"), ""},
		{"mixed glob and literal", append(in("m.json.rank?"), "lit"), append(in("m.json.rank0"), "lit"), ""},
		{"glob spanning two sets", in("*.rank0"), in("m.json.rank0", "t.json.rank0"), ""},
		{"no match", in("nothing*"), nil, "matched no files"},
		{"bad pattern", in("t.json.rank["), nil, "bad pattern"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := expandArtifacts(tc.args)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("expandArtifacts(%v) error = %v, want one containing %q", tc.args, err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("expandArtifacts(%v): %v", tc.args, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("expandArtifacts(%v) = %v, want %v", tc.args, got, tc.want)
			}
		})
	}
}
