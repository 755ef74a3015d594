package analysis

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// srcImporter resolves a load's imports from source, in process: it never
// runs the go command and never runs cgo. An import resolves as follows:
//
//   - "unsafe" is types.Unsafe;
//   - a path of the module enclosing the importing directory (the go.mod
//     found by walking up from it) maps to the directory under the
//     module root;
//   - a standard-library path (no dot in its first element), or any
//     import made from inside GOROOT/src, is located by go/build with cgo
//     disabled; the importing directory lets vendored std deps resolve;
//   - anything else, an import cycle, and a dependency that fails to
//     type-check become an empty placeholder package named after the
//     path's last element.
//
// Each resolved package is parsed and type-checked once per importer,
// function bodies ignored, and memoized by import path. Resolution
// depends on the importing directory only, never on the working
// directory, so the types a unit sees are the same wherever the analyzer
// runs. Rules must still tolerate missing information: a placeholder has
// no members.
type srcImporter struct {
	fset      *token.FileSet
	ctxt      build.Context
	gorootSrc string
	pkgs      map[string]*types.Package // by import path; nil if it failed, importing while in progress
	stubs     map[string]*types.Package // placeholders by import path
	mods      map[string]module         // directory -> enclosing module
}

// module is a go.mod's module path and the directory holding it.
type module struct{ path, root string }

// importing marks a package whose type-check is in progress, so a cycle
// back to it gets the placeholder instead of recursing.
var importing = types.NewPackage("", "")

func newSrcImporter(fset *token.FileSet) *srcImporter {
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &srcImporter{
		fset:      fset,
		ctxt:      ctxt,
		gorootSrc: filepath.Join(ctxt.GOROOT, "src"),
		pkgs:      map[string]*types.Package{},
		stubs:     map[string]*types.Package{},
		mods:      map[string]module{},
	}
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, ".", 0)
}

func (im *srcImporter) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if abs, err := filepath.Abs(srcDir); err == nil {
		srcDir = abs
	}
	path, dir := im.locate(path, srcDir)
	pkg, ok := im.pkgs[path]
	if !ok && dir != "" {
		im.pkgs[path] = importing
		pkg = im.check(path, dir)
		im.pkgs[path] = pkg
	}
	if pkg == nil || pkg == importing {
		pkg = im.stub(path)
	}
	return pkg, nil
}

// locate maps an import made from srcDir to its canonical import path
// and source directory; dir is "" when the import gets a placeholder.
func (im *srcImporter) locate(path, srcDir string) (canon, dir string) {
	inGoroot := within(im.gorootSrc, srcDir)
	if !inGoroot {
		m := im.module(srcDir)
		if rest, ok := strings.CutPrefix(path, m.path); ok && m.path != "" && (rest == "" || rest[0] == '/') {
			return path, filepath.Join(m.root, filepath.FromSlash(rest))
		}
	}
	// go/build only falls back to `go list` for an import from outside
	// GOROOT/src whose path is not a GOROOT/src directory; that case is
	// never handed to it.
	first, _, _ := strings.Cut(path, "/")
	if inGoroot || !strings.Contains(first, ".") && isDir(filepath.Join(im.gorootSrc, path)) {
		if bp, err := im.ctxt.Import(path, srcDir, build.FindOnly); err == nil {
			return bp.ImportPath, bp.Dir
		}
	}
	return path, ""
}

// module returns the module enclosing dir, caching every directory on
// the way up to its go.mod.
func (im *srcImporter) module(dir string) module {
	if m, ok := im.mods[dir]; ok {
		return m
	}
	var m module
	if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
		m = module{path: modulePath(data), root: dir}
	} else if parent := filepath.Dir(dir); parent != dir {
		m = im.module(parent)
	}
	im.mods[dir] = m
	return m
}

// check parses the package in dir (build constraints honoured, cgo off)
// and type-checks it without function bodies. It returns nil when the
// package cannot be read or parsed or has a hard type error, since a
// partly checked package may be missing members.
func (im *srcImporter) check(path, dir string) *types.Package {
	bp, err := im.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil
		}
		files = append(files, f)
	}
	hard := false
	conf := types.Config{
		Importer:         im,
		IgnoreFuncBodies: true,
		Sizes:            types.SizesFor("gc", im.ctxt.GOARCH),
		Error: func(err error) {
			if te, ok := err.(types.Error); !ok || !te.Soft {
				hard = true
			}
		},
	}
	pkg, _ := conf.Check(path, im.fset, files, nil)
	if hard {
		return nil
	}
	return pkg
}

// stub returns path's placeholder: an empty, complete package.
func (im *srcImporter) stub(path string) *types.Package {
	if pkg, ok := im.stubs[path]; ok {
		return pkg
	}
	pkg := types.NewPackage(path, path[strings.LastIndex(path, "/")+1:])
	pkg.MarkComplete()
	im.stubs[path] = pkg
	return pkg
}

// modulePath returns the module path a go.mod file declares.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "module" {
			return strings.Trim(f[1], "\"`")
		}
	}
	return ""
}

func within(root, dir string) bool {
	return dir == root || strings.HasPrefix(dir, root+string(filepath.Separator))
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// ensureTypes runs go/types over the unit with every error tolerated.
// Partial information is expected: expressions whose types could not be
// resolved simply have no entry in info.Types.
func (u *Unit) ensureTypes() {
	if u.typesOnce {
		return
	}
	u.typesOnce = true
	if u.imp == nil {
		u.imp = newSrcImporter(u.Fset)
	}
	conf := types.Config{
		Importer:         u.imp,
		Error:            func(error) {}, // collect nothing; partial info is fine
		IgnoreFuncBodies: false,
		FakeImportC:      true,
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, _ := conf.Check(u.Rel, u.Fset, u.Files, info) // errors intentionally ignored
	u.info = info
	u.typesPkg = pkg
}
