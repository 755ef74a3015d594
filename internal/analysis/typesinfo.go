package analysis

import (
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
)

// lenientImporter resolves std-library imports from source (so sync.Mutex
// et al. carry real type information) and degrades module-local imports —
// which the stdlib importers cannot resolve without a build driver — to
// empty placeholder packages. Rules that consult types must tolerate
// missing info; the SPMD rules are deliberately name-based so they do not
// depend on cross-package resolution.
type lenientImporter struct {
	src      types.Importer
	fallback map[string]*types.Package
}

func newLenientImporter(fset *token.FileSet) *lenientImporter {
	return &lenientImporter{
		src:      importer.ForCompiler(fset, "source", nil),
		fallback: map[string]*types.Package{},
	}
}

func (li *lenientImporter) Import(path string) (*types.Package, error) {
	if pkg, err := li.src.Import(path); err == nil {
		return pkg, nil
	}
	if pkg, ok := li.fallback[path]; ok {
		return pkg, nil
	}
	name := path
	if i := lastSlash(path); i >= 0 {
		name = path[i+1:]
	}
	pkg := types.NewPackage(path, name)
	pkg.MarkComplete()
	li.fallback[path] = pkg
	return pkg, nil
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
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
		u.imp = newLenientImporter(u.Fset)
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
