package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// writeOnlyObsHooks are the obs.Observer (and obs.Histogram) methods a
// process body may call: hooks that record an observation and return
// nothing the body could read back, so they cannot feed scheduling- or
// clock-dependent values into replayed control flow. Everything else in
// internal/obs — Snapshot, Metrics, Events, Now, ProcName, the Dump and
// Write exporters — hands observation state back to the caller and is
// flagged. TestObsAllowlistIsWriteOnly checks this list against the obs
// API: every allowlisted method must have no results.
var writeOnlyObsHooks = map[string]bool{
	"Emit":             true,
	"Annotate":         true,
	"MsgEnqueued":      true,
	"ClassifyScan":     true,
	"SchedHeap":        true,
	"RegisterProc":     true,
	"Observe":          true,
	"ShardAssumptions": true,
	"ShardEpoch":       true,
	"ShardHeap":        true,
	"ShardContention":  true,
}

// checkNondetCall flags calls that read a nondeterministic source
// directly instead of going through the *Proc handle.
func (w *walker) checkNondetCall(call *ast.CallExpr, callee *types.Func) {
	if callee == nil || callee.Pkg() == nil {
		return
	}
	name := callee.Name()
	switch callee.Pkg().Path() {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			w.a.errorf(call.Pos(), RuleNondeterminism,
				"call to time.%s inside a process body: wall-clock reads diverge under replay; read the clock before spawning or wrap the measurement in p.Effect", name)
		}
	case "math/rand", "math/rand/v2":
		w.a.errorf(call.Pos(), RuleNondeterminism,
			"call to %s.%s inside a process body: unlogged randomness diverges under replay; use p.Rand()", callee.Pkg().Name(), name)
	case "os":
		switch name {
		case "Getenv", "LookupEnv", "Environ":
			w.a.errorf(call.Pos(), RuleNondeterminism,
				"call to os.%s inside a process body: environment reads are not replayed; read configuration before spawning and close over the value", name)
		}
	case obsPath:
		// Observation hooks are legal only while they stay write-only:
		// a body that reads metric or event state back gets values that
		// depend on global scheduling, which diverge under replay.
		if !writeOnlyObsHooks[name] {
			w.a.errorf(call.Pos(), RuleNondeterminism,
				"call to obs %s.%s inside a process body reads observation state back into the computation: metric and event values depend on scheduling and diverge under replay; observation from a body must stay write-only (Emit/Annotate/... hooks)", recvName(callee), name)
		}
	}
}

// checkRange flags iteration whose order or content is nondeterministic:
// map ranges (unordered) and channel ranges (unlogged receives).
func (w *walker) checkRange(n *ast.RangeStmt) {
	tv, ok := w.f.pkg.Info.Types[n.X]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		w.a.errorf(n.Pos(), RuleNondeterminism,
			"range over a map inside a process body: iteration order diverges under replay; sort the keys first")
	case *types.Chan:
		w.a.errorf(n.Pos(), RuleNondeterminism,
			"range over a channel inside a process body: receives are not in the replay log; use p.Recv()")
	}
}

// checkSelect flags multi-way selects (arrival order is scheduler
// nondeterminism) and marks the comm-clause receives so they are not
// double-reported by the raw-receive rule.
func (w *walker) checkSelect(n *ast.SelectStmt) {
	var clauses []*ast.CommClause
	for _, s := range n.Body.List {
		if c, ok := s.(*ast.CommClause); ok && c.Comm != nil {
			clauses = append(clauses, c)
		}
	}
	if len(clauses) < 2 {
		return // single-arm polls still get the raw-receive diagnostic
	}
	for _, c := range clauses {
		markSelectRecv(w, c.Comm)
	}
	w.a.errorf(n.Pos(), RuleNondeterminism,
		"select with %d communication clauses inside a process body: which case fires is scheduler nondeterminism; use p.Recv()/p.RecvMatch to arbitrate", len(clauses))
}

// markSelectRecv records the receive operations in a comm clause so the
// UnaryExpr pass reports the select once, not once per arm.
func markSelectRecv(w *walker, comm ast.Stmt) {
	record := func(e ast.Expr) {
		if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			if w.selectRecv == nil {
				w.selectRecv = make(map[ast.Node]bool)
			}
			w.selectRecv[u] = true
		}
	}
	switch s := comm.(type) {
	case *ast.ExprStmt:
		record(s.X)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			record(r)
		}
	}
}

// recvName names a method's receiver type ("Observer") or, for a plain
// function, its package ("obs").
func recvName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name()
	}
	return "?"
}
