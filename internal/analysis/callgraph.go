package analysis

import (
	"go/ast"
	"go/types"
)

// callGraph is the per-unit static call graph the interprocedural rules
// walk. Nodes are the unit's function declarations; edges are call sites
// whose callee resolves to another declaration in the same unit. Bare
// identifier calls resolve to the like-named function; method calls
// resolve by selector name when the unit declares exactly one method with
// that name (ambiguous names stay unresolved — summaries then treat the
// call as having no communication effects, which keeps the engine
// conservative rather than wrong); package-qualified calls never resolve.
type callGraph struct {
	// byName maps a plain function name to its declaration.
	byName map[string]*ast.FuncDecl
	// methodByName maps a method name to its declaration when the unit
	// declares exactly one method of that name; ambiguous names are absent.
	methodByName map[string]*ast.FuncDecl
	// callers maps a declaration to the set of declarations that call it
	// (calls made inside function literals count for the enclosing decl).
	callers map[*ast.FuncDecl]map[*ast.FuncDecl]bool
	// decls lists every function declaration with a body, in file order.
	decls []*ast.FuncDecl
	info  *types.Info // the unit's, to tell package names from values
}

// buildCallGraph indexes the unit's declarations and call edges.
func buildCallGraph(u *Unit) *callGraph {
	cg := &callGraph{
		byName:       map[string]*ast.FuncDecl{},
		methodByName: map[string]*ast.FuncDecl{},
		callers:      map[*ast.FuncDecl]map[*ast.FuncDecl]bool{},
		info:         u.info,
	}
	ambiguous := map[string]bool{}
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			cg.decls = append(cg.decls, fd)
			if fd.Recv == nil {
				cg.byName[fd.Name.Name] = fd
				continue
			}
			name := fd.Name.Name
			if _, dup := cg.methodByName[name]; dup || ambiguous[name] {
				delete(cg.methodByName, name)
				ambiguous[name] = true
				continue
			}
			cg.methodByName[name] = fd
		}
	}
	for _, fd := range cg.decls {
		caller := fd
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := cg.resolve(call); callee != nil {
				if cg.callers[callee] == nil {
					cg.callers[callee] = map[*ast.FuncDecl]bool{}
				}
				cg.callers[callee][caller] = true
			}
			return true
		})
	}
	return cg
}

// resolve returns the unit-local declaration a call targets, or nil. The
// communication vocabulary itself (Send, Recv, Barrier, ...) is never
// resolved: those calls are effects, not edges — except when the unit
// genuinely declares a like-named function (the fixture stubs do), in
// which case the declaration still wins for edge purposes; the summary
// builder classifies the effect before consulting the graph, so stubs do
// not swallow effects.
func (cg *callGraph) resolve(call *ast.CallExpr) *ast.FuncDecl {
	switch x := unwrapCallFun(call).(type) {
	case *ast.Ident:
		return cg.byName[x.Name]
	case *ast.SelectorExpr:
		// A package-qualified call (strings.Split) never targets a
		// unit-local method, nor a receiver call a package function.
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := cg.info.Uses[id].(*types.PkgName); !isPkg {
				return cg.methodByName[x.Sel.Name]
			}
		}
	}
	return nil
}

// roots returns the declarations no other declaration in the unit calls —
// the entry points interprocedural package-wide analyses enumerate effects
// from — plus any declaration unreachable from those (mutually recursive
// orphan groups), so every declared effect is visible exactly once with
// the deepest available bindings.
func (cg *callGraph) roots() []*ast.FuncDecl {
	var roots []*ast.FuncDecl
	reached := map[*ast.FuncDecl]bool{}
	var mark func(fd *ast.FuncDecl)
	calls := map[*ast.FuncDecl][]*ast.FuncDecl{}
	for callee, cs := range cg.callers {
		for caller := range cs {
			calls[caller] = append(calls[caller], callee)
		}
	}
	mark = func(fd *ast.FuncDecl) {
		if reached[fd] {
			return
		}
		reached[fd] = true
		for _, callee := range calls[fd] {
			mark(callee)
		}
	}
	for _, fd := range cg.decls {
		if len(cg.callers[fd]) == 0 {
			roots = append(roots, fd)
			mark(fd)
		}
	}
	for _, fd := range cg.decls {
		if !reached[fd] {
			roots = append(roots, fd)
			mark(fd)
		}
	}
	return roots
}
