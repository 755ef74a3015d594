package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// opKind is what a communication operation does.
type opKind uint8

const (
	opColl     opKind = iota // a collective
	opSend                   // a point-to-point send
	opRecv                   // a point-to-point receive
	opSendRecv               // a paired send and blocking receive
)

// commShape is the shape of one operation of the cluster vocabulary.
type commShape struct {
	kind     opKind
	method   bool // a method on Comm; otherwise a function taking the Comm first
	payload  int  // payload argument index, -1 when the op carries none
	blocking bool // receives: false for TryRecv
}

// commVocab is the communication vocabulary of internal/cluster, by
// name. Point-to-point calls take (comm, peer, tag[, payload]); the
// payload positions mirror the cluster signatures.
var commVocab = map[string]commShape{
	"Barrier":   {kind: opColl, method: true, payload: -1},
	"Split":     {kind: opColl, method: true, payload: -1},
	"Bcast":     {kind: opColl, payload: 2},
	"Reduce":    {kind: opColl, payload: 2},
	"Gather":    {kind: opColl, payload: 2},
	"Scatter":   {kind: opColl, payload: 2},
	"Allreduce": {kind: opColl, payload: 1},
	"Allgather": {kind: opColl, payload: 1},
	"Alltoall":  {kind: opColl, payload: 1},
	"Scan":      {kind: opColl, payload: 1},
	"Send":      {kind: opSend, payload: 3},
	"SendRecv":  {kind: opSendRecv, payload: 3, blocking: true},
	"Recv":      {kind: opRecv, payload: -1, blocking: true},
	"RecvFrom":  {kind: opRecv, payload: -1, blocking: true},
	"TryRecv":   {kind: opRecv, payload: -1},
}

// commOp is one classified communication call.
type commOp struct {
	commShape
	name string
	comm string // communicator identifier ("" unknown)
}

// receives reports whether the op hands back data from a peer.
func (op commOp) receives() bool { return op.kind == opRecv || op.kind == opSendRecv }

// commOp classifies a call into the communication vocabulary. The callee
// is what the type checker resolved the called name to: it must be a
// function of a package that declares a type named Comm (the cluster
// package, or a fixture's stand-in), a method must have that Comm as its
// receiver, and its name picks the shape from commVocab. Namesakes
// (strings.Split, par.Reduce, a recorder's Send) and callees in
// placeholder packages are not communication. The call must also carry
// every argument its shape reads, so callers may index peer, tag and
// payload directly.
func (u *Unit) commOp(call *ast.CallExpr) (commOp, bool) {
	var id *ast.Ident
	fun := unwrapCallFun(call)
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return commOp{}, false
	}
	shape, ok := commVocab[id.Name]
	if !ok {
		return commOp{}, false
	}
	fn, ok := u.info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return commOp{}, false
	}
	comm, ok := fn.Pkg().Scope().Lookup("Comm").(*types.TypeName)
	if !ok {
		return commOp{}, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if (recv != nil) != shape.method || recv != nil && !isNamed(recv.Type(), comm) {
		return commOp{}, false
	}
	need := shape.payload + 1
	if shape.kind == opRecv {
		need = 3
	}
	if len(call.Args) < need {
		return commOp{}, false
	}
	// The communicator is a method's receiver, else the first argument.
	op := commOp{commShape: shape, name: id.Name, comm: argIdent(call, 0)}
	if shape.method {
		op.comm = ""
		if x, ok := fun.(*ast.SelectorExpr).X.(*ast.Ident); ok {
			op.comm = x.Name
		}
	}
	return op, true
}

// commCallName returns the bare name a call invokes (Run, w.Run,
// pool.For), for the substrate shapes that are matched by name:
// World.Run, the pool's For/ForRange/OnEach, and Do.
func commCallName(call *ast.CallExpr) string {
	switch x := unwrapCallFun(call).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if _, ok := x.X.(*ast.Ident); ok {
			return x.Sel.Name
		}
	}
	return ""
}

// isNamed reports whether t is the named type tn or a pointer to it.
func isNamed(t types.Type, tn *types.TypeName) bool {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj() == tn
}

// rankIdentNames are bare identifiers treated as a rank value.
var rankIdentNames = map[string]bool{
	"rank": true, "myrank": true, "myRank": true, "me": true, "myID": true,
}

// isRankExpr reports whether e denotes this rank's id; comm names the
// communicator identifier when derivable ("" when not).
func isRankExpr(e ast.Expr) (comm string, ok bool) {
	switch x := e.(type) {
	case *ast.Ident:
		if rankIdentNames[x.Name] || strings.HasSuffix(x.Name, "Rank") {
			return "", true
		}
	case *ast.CallExpr:
		if sel, isSel := x.Fun.(*ast.SelectorExpr); isSel && sel.Sel.Name == "Rank" && len(x.Args) == 0 {
			if id, isID := sel.X.(*ast.Ident); isID {
				return id.Name, true
			}
			return "", true
		}
	}
	return "", false
}

// rankComparison describes one rank comparison found in an if condition.
type rankComparison struct {
	comm string      // communicator ident ("" unknown)
	op   token.Token // EQL, NEQ, LSS, ...
}

// rankCond scans a boolean condition for comparisons against the rank.
// It descends through && and || and parentheses.
func rankCond(e ast.Expr) []rankComparison {
	var out []rankComparison
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.ParenExpr:
			walk(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.NOT {
				walk(x.X)
			}
		case *ast.BinaryExpr:
			switch x.Op {
			case token.LAND, token.LOR:
				walk(x.X)
				walk(x.Y)
			case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
				if comm, ok := isRankExpr(x.X); ok {
					out = append(out, rankComparison{comm: comm, op: x.Op})
				} else if comm, ok := isRankExpr(x.Y); ok {
					out = append(out, rankComparison{comm: comm, op: flipCmp(x.Op)})
				}
			}
		}
	}
	walk(e)
	return out
}

func flipCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.GTR:
		return token.LSS
	case token.LEQ:
		return token.GEQ
	case token.GEQ:
		return token.LEQ
	}
	return op // EQL, NEQ symmetric
}

// collectColls gathers, in source order, the collective calls under n that
// involve communicator comm (calls whose communicator cannot be derived
// are included; calls on a different, known communicator are not). It
// does not descend into nested function literals.
func collectColls(u *Unit, n ast.Node, comm string) []commOp {
	var out []commOp
	if n == nil {
		return nil
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch c := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if op, ok := u.commOp(c); ok && op.kind == opColl {
				if comm == "" || op.comm == "" || op.comm == comm {
					out = append(out, op)
				}
			}
		}
		return true
	})
	return out
}

// terminates reports whether the last statement of a block unconditionally
// leaves the function (return, panic, t.Fatal-style, os.Exit).
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			return isTerminalCall(call)
		}
	}
	return false
}

func isTerminalCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		n := fun.Sel.Name
		return strings.HasPrefix(n, "Fatal") || n == "Exit" || n == "Goexit" || strings.HasPrefix(n, "Skip")
	}
	return false
}

// funcBodies enumerates every function body in the unit: declarations and
// each function literal, so every closure is analyzed exactly once as its
// own scope.
func funcBodies(u *Unit, visit func(name string, body *ast.BlockStmt)) {
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			visit(fd.Name.Name, fd.Body)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				visit("func literal", lit.Body)
			}
			return true
		})
	}
}
