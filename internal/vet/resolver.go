package vet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the body-discovery layer: it finds process-body roots
// (the function arguments of Runtime.Spawn and the step functions of
// hope.Loop / engine.Loop), resolves a function-valued expression or a
// *types.Func back to the AST of its definition, loading sibling
// packages of the module on demand, and enumerates the body graph —
// the one answer to "what code runs under replay" that every rule
// iterates.

// enginePath is the package defining Runtime.Spawn, Proc, and Loop.
const enginePath = "hope/internal/engine"

// obsPath is the observability layer; the body graph never enters it,
// and calls into it from a body are governed by the nondeterminism
// rule's write-only allowlist (nondet.go), not the runtime exemption.
const obsPath = "hope/internal/obs"

// runtimePackages are the layers that implement the HOPE primitives
// rather than use them: the contract governs code running above the
// runtime, so the body graph never extends into these.
var runtimePackages = map[string]bool{
	"hope":                    true,
	"hope/internal/engine":    true,
	"hope/internal/tracker":   true,
	"hope/internal/ids":       true,
	"hope/internal/sets":      true,
	"hope/internal/semantics": true,
}

// bodyFunc is one node of the body graph: a function that executes
// under replay — a root, a same-module helper, or a closure called
// through a variable — with what every rule needs to know about it.
type bodyFunc struct {
	pkg  *Package
	fn   ast.Node // *ast.FuncLit or *ast.FuncDecl
	body *ast.BlockStmt

	// exempt holds the literals passed to Proc.Effect within body:
	// effect callbacks run at commit/abort time, outside replay, and no
	// rule looks inside them.
	exempt map[*ast.FuncLit]bool

	// calls maps each call in body that stays inside the graph to the
	// node it runs.
	calls map[*ast.CallExpr]*bodyFunc
}

// contains reports whether pos lies within f's source range, i.e.
// whether an object declared there is f's own rather than captured.
func (f *bodyFunc) contains(pos token.Pos) bool {
	return f.fn.Pos() <= pos && pos < f.fn.End()
}

// register tracks a package whose files participate in the analysis, so
// the directive scan covers every file the analysis read.
func (a *analyzer) register(pkg *Package) {
	if _, ok := a.byTypes[pkg.Pkg]; !ok {
		a.byTypes[pkg.Pkg] = pkg
		a.analyzed = append(a.analyzed, pkg)
	}
}

// roots discovers every process-body root in pkg — the body argument of
// each Runtime.Spawn call and the step function of each hope.Loop /
// engine.Loop call, resolved to its defining literal or declaration —
// and enumerates the graph below each.
func (a *analyzer) roots(pkg *Package) []*bodyFunc {
	var roots []*bodyFunc
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				for _, expr := range bodyArgs(pkg, call) {
					if rpkg, fn := a.funcExpr(pkg, expr); fn != nil {
						roots = append(roots, a.enumerate(rpkg, fn))
					}
				}
			}
			return true
		})
	}
	return roots
}

// enumerate returns the graph node for fn, building it and everything
// reachable from it on first sight.
func (a *analyzer) enumerate(pkg *Package, fn ast.Node) *bodyFunc {
	if f, ok := a.funcs[fn.Pos()]; ok {
		return f
	}
	f := &bodyFunc{pkg: pkg, fn: fn, calls: make(map[*ast.CallExpr]*bodyFunc)}
	switch fn := fn.(type) {
	case *ast.FuncLit:
		f.body = fn.Body
	case *ast.FuncDecl:
		f.body = fn.Body
	}
	f.exempt = effectCallbacks(pkg, f.body)
	a.funcs[fn.Pos()] = f
	a.order = append(a.order, f)
	ast.Inspect(f.body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && f.exempt[lit] {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if tpkg, target := a.callTarget(f, call); target != nil {
				f.calls[call] = a.enumerate(tpkg, target)
			}
		}
		return true
	})
	return f
}

// callTarget resolves the function a call inside f runs under replay,
// if the graph follows it: a function or method declared in this module
// outside the runtime layers and obs, or a closure — called through a
// variable bound to exactly one literal — defined outside f. (A literal
// inside f is already part of f's own extent.)
func (a *analyzer) callTarget(f *bodyFunc, call *ast.CallExpr) (*Package, ast.Node) {
	if callee := calleeOf(f.pkg, call); callee != nil {
		return a.decl(callee)
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if v, ok := f.pkg.Info.Uses[id].(*types.Var); ok {
			if lit := a.localLit(f.pkg, v); lit != nil && !f.contains(lit.Pos()) {
				return f.pkg, lit
			}
		}
	}
	return nil, nil
}

// bodyArgs returns the arguments of call that are process bodies: the
// body of Runtime.Spawn and the step function of hope.Loop/engine.Loop.
func bodyArgs(pkg *Package, call *ast.CallExpr) []ast.Expr {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			obj, _ := sel.Obj().(*types.Func)
			if isEngineFunc(obj, "Spawn") && len(call.Args) == 2 {
				return call.Args[1:2]
			}
			return nil
		}
		// Qualified call: engine.Loop(...) / hope.Loop(...).
		if obj, _ := pkg.Info.Uses[fun.Sel].(*types.Func); isLoop(obj) && len(call.Args) == 5 {
			return call.Args[4:5]
		}
	case *ast.Ident:
		if obj, _ := pkg.Info.Uses[fun].(*types.Func); isLoop(obj) && len(call.Args) == 5 {
			return call.Args[4:5]
		}
	}
	return nil
}

// isEngineFunc reports whether obj is the engine function or method of
// the given name (Spawn, Guess, Affirm, Effect, ...).
func isEngineFunc(obj *types.Func, name string) bool {
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == enginePath
}

func isLoop(obj *types.Func) bool {
	if obj == nil || obj.Name() != "Loop" || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == enginePath || p == "hope"
}

// funcExpr resolves a function-valued expression to the package and AST
// node of its definition: a literal, a named top-level function, a
// method value, or a local variable assigned exactly one literal.
func (a *analyzer) funcExpr(pkg *Package, expr ast.Expr) (*Package, ast.Node) {
	switch e := expr.(type) {
	case *ast.FuncLit:
		return pkg, e
	case *ast.Ident:
		switch obj := pkg.Info.Uses[e].(type) {
		case *types.Func:
			return a.decl(obj)
		case *types.Var:
			if lit := a.localLit(pkg, obj); lit != nil {
				return pkg, lit
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.MethodVal {
			if obj, ok := sel.Obj().(*types.Func); ok {
				return a.decl(obj)
			}
			return nil, nil
		}
		if obj, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
			return a.decl(obj)
		}
	}
	return nil, nil
}

// decl locates the FuncDecl (with a body) of fn if it is defined in
// this module outside the runtime layers and obs, loading its package
// if needed.
func (a *analyzer) decl(fn *types.Func) (*Package, ast.Node) {
	if fn == nil || fn.Pkg() == nil {
		return nil, nil
	}
	path := fn.Pkg().Path()
	if !a.loader.inModule(path) || runtimePackages[path] || path == obsPath {
		return nil, nil
	}
	pkg, ok := a.byTypes[fn.Pkg()]
	if !ok {
		loaded, err := a.loader.load(path)
		if err != nil || loaded.Pkg != fn.Pkg() {
			return nil, nil
		}
		a.register(loaded)
		pkg = loaded
	}
	idx := a.declIndex[pkg]
	if idx == nil {
		idx = make(map[*types.Func]*ast.FuncDecl)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						idx[obj] = fd
					}
				}
			}
		}
		a.declIndex[pkg] = idx
	}
	// A generic function's call sites resolve to the origin object.
	if origin := fn.Origin(); origin != nil {
		fn = origin
	}
	if fd, ok := idx[fn]; ok && fd.Body != nil {
		return pkg, fd
	}
	return nil, nil
}

// localLit resolves a function variable to its literal when the
// variable is bound to exactly one FuncLit in the package.
func (a *analyzer) localLit(pkg *Package, obj types.Object) *ast.FuncLit {
	idx := a.litIndex[pkg]
	if idx == nil {
		idx = make(map[types.Object]*ast.FuncLit)
		ambiguous := make(map[types.Object]bool)
		bind := func(id *ast.Ident, rhs ast.Expr) {
			lit, ok := rhs.(*ast.FuncLit)
			if !ok {
				return
			}
			o := pkg.Info.Defs[id]
			if o == nil {
				o = pkg.Info.Uses[id]
			}
			if o == nil {
				return
			}
			if _, dup := idx[o]; dup {
				ambiguous[o] = true
				return
			}
			idx[o] = lit
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					if len(s.Lhs) == len(s.Rhs) {
						for i, lhs := range s.Lhs {
							if id, ok := lhs.(*ast.Ident); ok {
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
				}
				return true
			})
		}
		for o := range ambiguous {
			delete(idx, o)
		}
		a.litIndex[pkg] = idx
	}
	return idx[obj]
}

// calleeOf resolves the function object a call invokes, if any.
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return obj
		}
	case *ast.SelectorExpr:
		if obj, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return obj
		}
	}
	return nil
}

// effectCallbacks collects the function literals passed to Proc.Effect
// within body.
func effectCallbacks(pkg *Package, body *ast.BlockStmt) map[*ast.FuncLit]bool {
	exempt := make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isEngineFunc(calleeOf(pkg, call), "Effect") {
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					exempt[lit] = true
				}
			}
		}
		return true
	})
	return exempt
}
