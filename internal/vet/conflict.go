package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The conflict rule finds bodies that both Affirm and Deny the same
// assumption on one execution path — the §5.2 user error: a resolution
// is permanent, so the second call can only race the first, and which
// one wins depends on scheduling. The check is purposely conservative:
// it keys resolutions by the *types.Object of a bare-identifier AID
// argument, and only reports a pair when the paths from their deepest
// common ancestor contain no conditional or looping construct — i.e.
// when executing one call guarantees executing the other. The ordinary
// if/else { Affirm } / { Deny } shape is never reported.

// resolution records one Affirm/Deny call on a bare-identifier AID.
type resolution struct {
	affirm bool
	obj    types.Object
	pos    token.Pos
	path   []ast.Node // ancestor stack from the body root to the call
}

// recordResolution captures Affirm/Deny calls for the conflict pass.
func (w *walker) recordResolution(call *ast.CallExpr, callee *types.Func) {
	if callee == nil || len(call.Args) != 1 {
		return
	}
	affirm := callee.Name() == "Affirm"
	if !affirm && callee.Name() != "Deny" {
		return
	}
	if !isEngineFunc(callee, callee.Name()) {
		return
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	obj, ok := w.f.pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return
	}
	w.resolutions = append(w.resolutions, resolution{
		affirm: affirm,
		obj:    obj,
		pos:    call.Pos(),
		path:   append([]ast.Node(nil), w.stack...),
	})
}

// reportConflicts pairs the recorded Affirms and Denies per AID object
// and reports the first unconditional pair for each.
func (w *walker) reportConflicts() {
	var order []types.Object
	byObj := make(map[types.Object][]resolution)
	for _, r := range w.resolutions {
		if _, ok := byObj[r.obj]; !ok {
			order = append(order, r.obj)
		}
		byObj[r.obj] = append(byObj[r.obj], r)
	}
	for _, obj := range order {
		rs := byObj[obj]
	pairs:
		for _, a := range rs {
			if !a.affirm {
				continue
			}
			for _, d := range rs {
				if d.affirm || !unconditionalPair(a.path, d.path) {
					continue
				}
				pos := a.pos
				if d.pos > pos {
					pos = d.pos
				}
				w.a.errorf(pos, RuleConflict,
					"process body both affirms and denies %q on the same execution path: a resolution is permanent, so the second call races the first (§5.2); resolve each assumption exactly once", obj.Name())
				break pairs // one diagnostic per AID
			}
		}
	}
}

// unconditionalPair reports whether two calls, identified by their
// ancestor paths, always execute together: below their deepest common
// ancestor, neither path passes through a construct that could run one
// call without the other.
func unconditionalPair(a, b []ast.Node) bool {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	if i == 0 || i >= len(a) || i >= len(b) {
		return false // one call nested inside the other; out of scope
	}
	if exclusiveAt(a[i-1], a[i], b[i]) {
		return false
	}
	return !conditionalBelow(a[i:]) && !conditionalBelow(b[i:])
}

// exclusiveAt reports whether the two paths part ways into mutually
// exclusive branches of their deepest common ancestor. Only an if
// statement needs handling here: its then/else blocks are direct
// children, whereas switch and select cases diverge below a CaseClause
// or CommClause that conditionalBelow already sees in the segments.
func exclusiveAt(lca, ca, cb ast.Node) bool {
	s, ok := lca.(*ast.IfStmt)
	if !ok {
		return false
	}
	branch := func(n ast.Node) bool { return n == s.Body || n == s.Else }
	return branch(ca) && branch(cb)
}

// conditionalBelow reports whether the path segment contains a node
// that makes execution of its subtree conditional or repeated. An if
// or switch statement's init and condition always execute when the
// statement is reached, so `if err := p.Affirm(x); err != nil` counts
// as unconditional; only descending into a branch body does not.
func conditionalBelow(path []ast.Node) bool {
	for i, n := range path {
		var next ast.Node
		if i+1 < len(path) {
			next = path[i+1]
		}
		switch s := n.(type) {
		case *ast.IfStmt:
			if next == nil || (next != s.Init && next != s.Cond) {
				return true
			}
		case *ast.SwitchStmt:
			if next == nil || (next != s.Init && next != s.Tag) {
				return true
			}
		case *ast.TypeSwitchStmt, *ast.SelectStmt,
			*ast.ForStmt, *ast.RangeStmt, *ast.CaseClause, *ast.CommClause,
			*ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return true
		case *ast.BinaryExpr:
			// Short-circuit operands of && / || are conditional; being
			// inside any BinaryExpr is close enough for a heuristic
			// that must never cry wolf.
			return true
		}
	}
	return false
}
