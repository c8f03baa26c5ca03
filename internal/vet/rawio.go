package vet

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// rawIOMessage classifies a call as raw I/O that bypasses the effect
// machinery — text a body prints directly is visible even if the
// execution rolls back, while p.Printf buffers it until the surrounding
// window settles — returning a non-empty diagnostic message when it
// does. The rawio rule reports every such call in a body; the specleak
// pass reuses the classifier to flag the strictly worse case of
// irrevocable I/O issued while a speculation is unresolved.
func rawIOMessage(pkg *Package, call *ast.CallExpr, callee *types.Func) string {
	// Builtin print/println write straight to stderr.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && (b.Name() == "print" || b.Name() == "println") {
			return fmt.Sprintf("builtin %s inside a process body writes to stderr before the outcome settles; use p.Printf", b.Name())
		}
	}
	if callee == nil || callee.Pkg() == nil {
		return ""
	}
	name := callee.Name()
	switch callee.Pkg().Path() {
	case "fmt":
		switch {
		case name == "Print" || name == "Printf" || name == "Println":
			return fmt.Sprintf("call to fmt.%s inside a process body: output escapes effect buffering and survives rollback; use p.Printf", name)
		case strings.HasPrefix(name, "Fprint") && len(call.Args) > 0:
			if target := describeIOTarget(pkg, call.Args[0]); target != "" {
				return fmt.Sprintf("fmt.%s to %s inside a process body: output escapes effect buffering and survives rollback; use p.Printf or wrap the write in p.Effect", name, target)
			}
		}
	case "log":
		return fmt.Sprintf("call to log.%s inside a process body: output escapes effect buffering and survives rollback; use p.Printf or wrap the write in p.Effect", name)
	case "os":
		switch name {
		case "WriteFile", "Create", "OpenFile", "Remove", "RemoveAll",
			"Mkdir", "MkdirAll", "Rename", "Truncate", "Chmod", "Symlink", "Link":
			return fmt.Sprintf("call to os.%s inside a process body: filesystem effects survive rollback; wrap the action in p.Effect", name)
		default:
			return fileMethodMessage(callee)
		}
	}
	return ""
}

// fileMethodMessage classifies writes through an *os.File method value.
func fileMethodMessage(callee *types.Func) string {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isOSFile(sig.Recv().Type()) {
		return ""
	}
	switch name := callee.Name(); name {
	case "Write", "WriteString", "WriteAt", "ReadFrom", "Sync", "Truncate":
		return fmt.Sprintf("File.%s inside a process body: the write is visible even if the execution rolls back; wrap it in p.Effect", name)
	}
	return ""
}

// describeIOTarget reports a non-empty description when expr is an
// external output stream: os.Stdout, os.Stderr, or any *os.File.
func describeIOTarget(pkg *Package, expr ast.Expr) string {
	if sel, ok := ast.Unparen(expr).(*ast.SelectorExpr); ok {
		if v, ok := pkg.Info.Uses[sel.Sel].(*types.Var); ok && v.Pkg() != nil && v.Pkg().Path() == "os" {
			switch v.Name() {
			case "Stdout", "Stderr":
				return "os." + v.Name()
			}
		}
	}
	if tv, ok := pkg.Info.Types[expr]; ok && tv.Type != nil && isOSFile(tv.Type) {
		return "an *os.File"
	}
	return ""
}

// isOSFile reports whether t is os.File or *os.File.
func isOSFile(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "os" && named.Obj().Name() == "File"
}
