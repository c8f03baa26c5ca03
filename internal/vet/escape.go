package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The escape pass. Rollback restores nothing but the log position, so a
// body that stores into memory declared outside it leaks state across
// re-executions and races with whatever else reads it. `x = v` on a
// captured x is visible in the syntax; `*p = v`, `x.f = v`, `s[i] = v`,
// `m[k] = v`, `delete(m, k)`, `outer.Store(k, v)`, and the same stores
// reached through a helper call are not, because the question is
// aliasing, not spelling. This pass answers it with a may-alias
// dataflow per function:
//
//  1. Seed: every variable referenced in the function but declared
//     outside it (captured locals, package-level vars) is outer; for
//     helpers reached from a body, the parameters that received
//     outer-aliased arguments at some call site are outer too.
//  2. Propagate to a fixpoint over the function's assignments: a local
//     bound to an expression that may alias outer memory becomes outer.
//     Aliasing survives copies of reference-shaped values (pointers,
//     slices, maps, channels, interfaces) and flows through field
//     selection, indexing, dereference, address-of, slicing, type
//     assertion, append, and composite literals.
//  3. Flag: any store whose base chain is rooted in an outer variable,
//     any mutating builtin (delete/clear/copy) or sync/atomic mutator
//     applied to outer memory, and any raw channel send on an outer
//     channel. Calls follow the body graph's edges: a same-module helper
//     is analyzed under the caller's outer mask, so a body cannot
//     launder a shared pointer through a helper, and a closure called
//     through a variable is analyzed against its own capture boundary;
//     the diagnostic lands on the store.
//
// Known false negatives, deliberately accepted and documented in
// DESIGN.md: aliases smuggled through struct-valued copies, pointers
// arriving in message payloads (p.Recv returns are treated as fresh),
// results of function calls, and calls through function-typed values
// not bound to a single literal. Effect callbacks are exempt wholesale
// — commit/abort time is the sanctioned way to touch shared memory —
// and so is any function literal passed as a call argument: its stores
// belong to whatever context eventually invokes it (p.Effect, in the
// sanctioned commit-callback idiom), and higher-order invocation is
// already in the function-typed-value false-negative class above.

// mutatorMethods are method names on sync.Map / sync/atomic types that
// store through their receiver.
var mutatorMethods = map[string]bool{
	"Store": true, "Delete": true, "Swap": true,
	"LoadOrStore": true, "LoadAndDelete": true,
	"CompareAndSwap": true, "CompareAndDelete": true,
	"Add": true, "Or": true, "And": true,
}

type escapePass struct {
	a *analyzer
	f *bodyFunc

	outer map[*types.Var]bool // propagated outer-aliasing locals
	root  bool                // f is a body root, not a helper reached from one
}

// escapeFunc analyzes one function of the body graph with the given set
// of outer-aliased parameters (nil for a body root or a closure, whose
// outer set is everything declared outside the literal). Each
// (function, mask) pair is analyzed once.
func (a *analyzer) escapeFunc(f *bodyFunc, outerParams map[*types.Var]bool, root bool) {
	var mask []string
	for v := range outerParams {
		mask = append(mask, v.Name())
	}
	sort.Strings(mask)
	key := escapeKey{fn: f.fn.Pos(), mask: strings.Join(mask, ",")}
	if a.escapeVisited[key] {
		return
	}
	a.escapeVisited[key] = true
	e := &escapePass{a: a, f: f, outer: make(map[*types.Var]bool), root: root}
	for v := range outerParams {
		e.outer[v] = true
	}
	e.propagate()
	e.flagStores()
}

// seedOuter reports whether v's storage itself lives outside the
// analyzed function: a captured local or a package-level variable.
func (e *escapePass) seedOuter(v *types.Var) bool {
	if v == nil || v.IsField() || v.Name() == "_" {
		return false
	}
	return e.outer[v] || !e.f.contains(v.Pos())
}

// refShaped reports whether a value of type t carries aliasing across a
// copy: pointers, slices, maps, channels, interfaces, functions.
func refShaped(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan,
		*types.Interface, *types.Signature:
		return true
	}
	return false
}

// exprOuter reports whether evaluating e may yield a value aliasing
// memory declared outside the function.
func (e *escapePass) exprOuter(x ast.Expr) bool {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident:
		v, _ := e.f.pkg.Info.Uses[x].(*types.Var)
		return e.seedOuter(v)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return e.exprOuter(x.X)
		}
	case *ast.StarExpr:
		return e.exprOuter(x.X)
	case *ast.SelectorExpr:
		// A package-qualified variable (os.Stdout) resolves through Sel.
		if v, ok := e.f.pkg.Info.Uses[x.Sel].(*types.Var); ok && !v.IsField() {
			return e.seedOuter(v)
		}
		return e.exprOuter(x.X)
	case *ast.IndexExpr:
		return e.exprOuter(x.X)
	case *ast.IndexListExpr:
		return e.exprOuter(x.X)
	case *ast.SliceExpr:
		return e.exprOuter(x.X)
	case *ast.TypeAssertExpr:
		return e.exprOuter(x.X)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if e.exprOuter(elt) {
				return true
			}
		}
	case *ast.CallExpr:
		// Call results are fresh, except append, which returns (a
		// possible regrowth of) its first argument's backing array.
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
			if b, ok := e.f.pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(x.Args) > 0 {
				return e.exprOuter(x.Args[0])
			}
		}
	}
	return false
}

// propagate runs the assignment fixpoint, marking locals that may come
// to alias outer memory.
func (e *escapePass) propagate() {
	type assign struct {
		lhs *types.Var
		rhs ast.Expr
	}
	var assigns []assign
	bind := func(id *ast.Ident, rhs ast.Expr) {
		obj := e.f.pkg.Info.Defs[id]
		if obj == nil {
			obj = e.f.pkg.Info.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Name() != "_" {
			assigns = append(assigns, assign{v, rhs})
		}
	}
	ast.Inspect(e.f.body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && e.f.exempt[lit] {
			return false
		}
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i, lhs := range s.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						bind(id, s.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) == len(s.Values) {
				for i, id := range s.Names {
					bind(id, s.Values[i])
				}
			}
		case *ast.RangeStmt:
			// Ranging over an outer collection binds element aliases
			// when the element is reference-shaped.
			for _, lhs := range []ast.Expr{s.Key, s.Value} {
				if lhs == nil {
					continue
				}
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					bind(id, s.X)
				}
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		for _, as := range assigns {
			if e.outer[as.lhs] {
				continue
			}
			if e.exprOuter(as.rhs) && refShaped(as.lhs.Type()) {
				e.outer[as.lhs] = true
				changed = true
			}
		}
	}
}

// storeRoot chases a store target's base chain to its root identifier's
// variable, if any: `(*p).f[i]` → p, `m[k]` → m, `x.a.b` → x.
func (e *escapePass) storeRoot(x ast.Expr) *types.Var {
	for {
		switch t := ast.Unparen(x).(type) {
		case *ast.Ident:
			v, _ := e.f.pkg.Info.Uses[t].(*types.Var)
			return v
		case *ast.SelectorExpr:
			// Stop at a package-qualified variable.
			if v, ok := e.f.pkg.Info.Uses[t.Sel].(*types.Var); ok && !v.IsField() {
				if id, isPkg := ast.Unparen(t.X).(*ast.Ident); isPkg {
					if _, ok := e.f.pkg.Info.Uses[id].(*types.PkgName); ok {
						return v
					}
				}
			}
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.StarExpr:
			x = t.X
		case *ast.SliceExpr:
			x = t.X
		case *ast.TypeAssertExpr:
			x = t.X
		default:
			return nil
		}
	}
}

func describeStore(x ast.Expr) string {
	switch ast.Unparen(x).(type) {
	case *ast.StarExpr:
		return "a captured pointer"
	case *ast.SelectorExpr:
		return "a field of captured state"
	case *ast.IndexExpr:
		return "an element of a captured slice or map"
	case *ast.SliceExpr:
		return "a captured slice"
	}
	return "captured state"
}

// flagStores walks the function and reports every store that reaches
// outer memory, descending into same-module helpers with the call
// site's outer mask.
func (e *escapePass) flagStores() {
	where := "the process body"
	if !e.root {
		where = "a helper reached from a process body"
	}
	flagTarget := func(lhs ast.Expr) {
		lhs = ast.Unparen(lhs)
		if id, ok := lhs.(*ast.Ident); ok {
			// Bare identifier: the store hits the variable's own cell,
			// so only a cell declared outside the function is shared.
			// (A parameter holding an outer pointer is a callee-local
			// cell; reassigning it is harmless — writing through it is
			// the StarExpr case below.)
			v, _ := e.f.pkg.Info.Uses[id].(*types.Var)
			if v != nil && !v.IsField() && v.Name() != "_" && !e.f.contains(v.Pos()) {
				e.a.errorf(id.Pos(), RuleEscape,
					"assignment to %q, declared outside %s: rollback cannot undo the write and re-execution repeats it; keep mutable state local or move the write into p.Effect", id.Name, where)
			}
			return
		}
		root := e.storeRoot(lhs)
		if root == nil || !e.seedOuter(root) {
			return
		}
		e.a.errorf(lhs.Pos(), RuleEscape,
			"store through %s (rooted in %q, which aliases memory declared outside %s): rollback cannot undo the write and a replay repeats it against already-mutated state; keep the structure body-local or move the write into p.Effect", describeStore(lhs), root.Name(), where)
	}

	// A literal passed as a call argument is a callback: it runs in the
	// callee's context (under p.Effect in the sanctioned commit idiom),
	// not during this body's speculative execution, so its stores are
	// not charged here. A nested Spawn body is likewise analyzed as its
	// own root, with its own closure boundary, not against this frame.
	deferredLits := make(map[*ast.FuncLit]bool)
	ast.Inspect(e.f.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					deferredLits[lit] = true
				}
			}
		}
		return true
	})

	ast.Inspect(e.f.body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && (e.f.exempt[lit] || deferredLits[lit]) {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				flagTarget(lhs)
			}
		case *ast.IncDecStmt:
			flagTarget(n.X)
		case *ast.SendStmt:
			if e.exprOuter(n.Chan) {
				e.a.errorf(n.Pos(), RuleEscape,
					"send on a channel declared outside %s: the value is visible to its receiver before the speculation settles and the send is not in the replay log; use p.Send, or move the handoff into p.Effect", where)
			}
		case *ast.CallExpr:
			e.flagCall(n)
		}
		return true
	})
}

// flagCall handles mutating builtins, sync/atomic mutators, and the
// interprocedural descent.
func (e *escapePass) flagCall(call *ast.CallExpr) {
	// Mutating builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := e.f.pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "delete", "clear":
				if len(call.Args) > 0 && e.exprOuter(call.Args[0]) {
					e.a.errorf(call.Pos(), RuleEscape,
						"%s on a captured collection: rollback cannot restore the removed entries; keep the collection body-local or mutate it in p.Effect", b.Name())
				}
			case "copy":
				if len(call.Args) > 0 && e.exprOuter(call.Args[0]) {
					e.a.errorf(call.Pos(), RuleEscape,
						"copy into a captured slice: rollback cannot undo the overwritten elements; copy into a body-local slice and publish it in p.Effect")
				}
			}
			return
		}
	}
	target := e.f.calls[call]
	callee := calleeOf(e.f.pkg, call)
	if callee == nil || callee.Pkg() == nil {
		if target != nil {
			// A closure called through a variable: no parameters to
			// mask, its own capture boundary.
			e.a.escapeFunc(target, nil, false)
		}
		return
	}
	path := callee.Pkg().Path()

	// sync / sync/atomic mutators on captured state.
	if path == "sync" || path == "sync/atomic" {
		if sig, ok := callee.Type().(*types.Signature); ok {
			if sig.Recv() != nil && mutatorMethods[callee.Name()] {
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && e.exprOuter(sel.X) {
					e.a.errorf(call.Pos(), RuleEscape,
						"%s.%s on captured state: the mutation is visible to other goroutines immediately and rollback cannot undo it; keep it body-local or move it into p.Effect", path, callee.Name())
				}
			} else if sig.Recv() == nil && path == "sync/atomic" &&
				(strings.HasPrefix(callee.Name(), "Store") || strings.HasPrefix(callee.Name(), "Add") ||
					strings.HasPrefix(callee.Name(), "Swap") || strings.HasPrefix(callee.Name(), "CompareAndSwap")) {
				if len(call.Args) > 0 && e.exprOuter(call.Args[0]) {
					e.a.errorf(call.Pos(), RuleEscape,
						"atomic.%s on captured state: the mutation is visible to other goroutines immediately and rollback cannot undo it; keep it body-local or move it into p.Effect", callee.Name())
				}
			}
		}
		return
	}

	if isEngineFunc(callee, "Checkpoint") {
		// Checkpointed state is handed back verbatim on restore: if it
		// aliases memory outside the body, writes through the shared
		// structure after the checkpoint corrupt the recovery point.
		// Value-shaped arguments are copied into the interface and are
		// safe.
		for _, arg := range call.Args {
			if e.exprOuter(arg) && refShaped(e.f.pkg.Info.Types[arg].Type) {
				e.a.errorf(arg.Pos(), RuleEscape,
					"checkpointed state aliases memory declared outside the body: the snapshot is restored by reference, so later writes through the shared structure corrupt the recovery point; checkpoint a body-local deep copy")
			}
		}
		return
	}

	// Interprocedural descent: analyze a same-module helper under the
	// call site's outer mask.
	if target != nil {
		e.a.escapeFunc(target, e.callMask(call, callee, target), false)
	}
}

// callMask maps outer-aliased argument expressions (and the receiver)
// to the callee's parameter variables.
func (e *escapePass) callMask(call *ast.CallExpr, callee *types.Func, target *bodyFunc) map[*types.Var]bool {
	mask := make(map[*types.Var]bool)
	sig, _ := callee.Type().(*types.Signature)
	if sig == nil {
		return mask
	}
	paramVar := func(i int) *types.Var {
		if sig.Params().Len() == 0 {
			return nil
		}
		if i >= sig.Params().Len() {
			i = sig.Params().Len() - 1 // variadic tail
		}
		return sig.Params().At(i)
	}
	// Method receiver.
	if sig.Recv() != nil {
		fd := target.fn.(*ast.FuncDecl) // a callee object always resolves to a declaration
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && e.exprOuter(sel.X) {
			if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
				if rv, ok := target.pkg.Info.Defs[fd.Recv.List[0].Names[0]].(*types.Var); ok {
					mask[rv] = true
				}
			}
		}
	}
	for i, arg := range call.Args {
		if !e.exprOuter(arg) {
			continue
		}
		if !refShaped(e.f.pkg.Info.Types[arg].Type) {
			continue // a value copy severs the alias
		}
		if pv := paramVar(i); pv != nil {
			mask[pv] = true
		}
	}
	return mask
}
