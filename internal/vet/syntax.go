package vet

import (
	"go/ast"
	"go/token"
)

// walker runs the syntactic rules — nondeterminism, rawio, conflict —
// over one function of the body graph, maintaining the ancestor stack
// for the conflict rule's path analysis.
type walker struct {
	a *analyzer
	f *bodyFunc

	stack       []ast.Node
	resolutions []resolution
	selectRecv  map[ast.Node]bool // receives inside select comm clauses
}

// checkSyntax reports the syntactic rules' findings in f.
func (a *analyzer) checkSyntax(f *bodyFunc) {
	w := &walker{a: a, f: f}
	ast.Inspect(f.body, func(n ast.Node) bool {
		if n == nil {
			w.stack = w.stack[:len(w.stack)-1]
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok && f.exempt[lit] {
			return false // effect callback: sanctioned external action
		}
		w.stack = append(w.stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			callee := calleeOf(f.pkg, n)
			w.checkNondetCall(n, callee)
			if msg := rawIOMessage(f.pkg, n, callee); msg != "" {
				a.errorf(n.Pos(), RuleRawIO, "%s", msg)
			}
			w.recordResolution(n, callee)
		case *ast.GoStmt:
			a.errorf(n.Pos(), RuleNondeterminism,
				"go statement inside a process body: the goroutine escapes rollback and replay; spawn processes with Runtime.Spawn")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !w.selectRecv[n] {
				a.errorf(n.Pos(), RuleNondeterminism,
					"raw channel receive inside a process body is not in the replay log; use p.Recv()")
			}
		case *ast.RangeStmt:
			w.checkRange(n)
		case *ast.SelectStmt:
			w.checkSelect(n)
		}
		// ast.Inspect calls back with nil after the subtree; the stack
		// pop above pairs with this push.
		return true
	})
	w.reportConflicts()
}
