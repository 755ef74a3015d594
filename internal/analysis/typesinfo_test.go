package analysis

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// loadTyped loads the one unit in dir and type-checks it.
func loadTyped(t *testing.T, dir string) *Unit {
	t.Helper()
	units, err := Load([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 {
		t.Fatalf("%s: %d units, want 1", dir, len(units))
	}
	u := units[0]
	u.ensureTypes()
	return u
}

// imported returns the package u imports under path.
func imported(t *testing.T, u *Unit, path string) *types.Package {
	t.Helper()
	for _, p := range u.typesPkg.Imports() {
		if p.Path() == path {
			return p
		}
	}
	t.Fatalf("%s does not import %s", u.Rel, path)
	return nil
}

// checkClusterResolved fails unless pkg is the real repro/internal/cluster
// rather than a placeholder: complete, with a Comm type that has methods.
func checkClusterResolved(t *testing.T, pkg *types.Package) {
	t.Helper()
	if !pkg.Complete() {
		t.Errorf("%s is incomplete", pkg.Path())
	}
	tn, ok := pkg.Scope().Lookup("Comm").(*types.TypeName)
	if !ok {
		t.Fatalf("%s has no Comm type (a placeholder?)", pkg.Path())
	}
	if n := types.NewMethodSet(types.NewPointer(tn.Type())).Len(); n == 0 {
		t.Errorf("%s.Comm has no methods", pkg.Path())
	}
}

// typesFingerprint renders every definition, use and typed expression of
// u, in source order, so two loads can be compared for identical types.
func typesFingerprint(u *Unit) string {
	var lines []string
	for id, obj := range u.info.Defs {
		if obj != nil {
			lines = append(lines, fmt.Sprintf("%v def %s", u.Fset.Position(id.Pos()), obj))
		}
	}
	for id, obj := range u.info.Uses {
		lines = append(lines, fmt.Sprintf("%v use %s", u.Fset.Position(id.Pos()), obj))
	}
	for e, tv := range u.info.Types {
		lines = append(lines, fmt.Sprintf("%v-%v type %s", u.Fset.Position(e.Pos()), u.Fset.Position(e.End()), tv.Type))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestTypesIndependentOfCwd loads internal/knn by absolute path from an
// empty directory and from the repository root: both must resolve the
// module's packages for real and produce identical type information.
func TestTypesIndependentOfCwd(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("..", "knn"))
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(filepath.Dir(dir))
	orig, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(orig) })
	var prints []string
	for _, cwd := range []string{t.TempDir(), root} {
		if err := os.Chdir(cwd); err != nil {
			t.Fatal(err)
		}
		u := loadTyped(t, dir)
		checkClusterResolved(t, imported(t, u, "repro/internal/cluster"))
		if len(u.imp.stubs) != 0 {
			var paths []string
			for p := range u.imp.stubs {
				paths = append(paths, p)
			}
			sort.Strings(paths)
			t.Errorf("from %s: placeholders for %v", cwd, paths)
		}
		for path, pkg := range u.imp.pkgs {
			if pkg == nil || !pkg.Complete() {
				t.Errorf("from %s: %s did not type-check completely", cwd, path)
			}
		}
		prints = append(prints, typesFingerprint(u))
	}
	if prints[0] != prints[1] {
		t.Errorf("type information depends on the working directory")
	}
}

// TestImportsRunNoGoCommand breaks every `go list` through GOFLAGS: the
// module's imports must still resolve, because none is made.
func TestImportsRunNoGoCommand(t *testing.T) {
	t.Setenv("GOFLAGS", "-mod=bogus")
	u := loadTyped(t, filepath.Join("..", "knn"))
	checkClusterResolved(t, imported(t, u, "repro/internal/cluster"))
}

// TestImportCycleDegrades loads a pair of packages that import each
// other: analysis terminates and each sees the other as a placeholder.
func TestImportCycleDegrades(t *testing.T) {
	units, err := Load([]string{filepath.Join("testdata", "src", "cycle") + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("%d units, want 2", len(units))
	}
	for _, u := range units {
		if fs := Analyze(u, DefaultConfig()); len(fs) != 0 {
			t.Errorf("%s: unexpected findings %v", u.Rel, fs)
		}
		other := map[string]string{"a": "b", "b": "a"}[u.Name]
		pkg := imported(t, u, "repro/internal/analysis/testdata/src/cycle/"+other)
		if pkg.Name() != other || pkg.Scope().Len() != 0 {
			t.Errorf("%s: import of %s is %q with %d members, want the empty placeholder",
				u.Rel, other, pkg.Name(), pkg.Scope().Len())
		}
	}
}

// TestReplaceResolvesLocally loads perfbench, a module of its own that
// reaches this one through `replace repro => ../`: its repro/... imports
// must resolve to the real packages, not placeholders.
func TestReplaceResolvesLocally(t *testing.T) {
	u := loadTyped(t, filepath.Join("..", "..", "perfbench"))
	checkClusterResolved(t, imported(t, u, "repro/internal/cluster"))
	for path := range u.imp.stubs {
		if strings.HasPrefix(path, "repro/") {
			t.Errorf("placeholder for %s", path)
		}
	}
}

// TestParseGoMod reads the module path and only the replace directives
// that point at a local directory.
func TestParseGoMod(t *testing.T) {
	gomod := `module example.com/app // the app

require example.com/lib v1.2.0

replace example.com/lib => ../lib
replace example.com/pinned v1.0.0 => ./pinned // a comment
replace example.com/up => ..
replace example.com/remote => example.com/fork v1.1.0
`
	got := parseGoMod([]byte(gomod), "/src/app")
	want := module{
		"example.com/app":    "/src/app",
		"example.com/lib":    "/src/lib",
		"example.com/pinned": "/src/app/pinned",
		"example.com/up":     "/src",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseGoMod = %v, want %v", got, want)
	}
	if dir := got.dir("example.com/lib/sub"); dir != "/src/lib/sub" {
		t.Errorf("dir(example.com/lib/sub) = %q", dir)
	}
	if dir := got.dir("example.com/library"); dir != "" {
		t.Errorf("dir(example.com/library) = %q, want none", dir)
	}
}
