// Package vet statically checks HOPE programs against the engine's
// piecewise-determinism contract (hope.go; DESIGN.md "Static
// analysis"). The engine implements rollback by replaying a process
// body from a log of its Proc interactions, so a body must route all
// nondeterminism through its *Proc handle and all externally visible
// actions through Effect/Printf, must not mutate state shared with
// other goroutines, and must resolve every speculation it alone can
// resolve. A violation surfaces at runtime only as ErrNondeterministic
// — or as silent divergence on an interleaving the tests never hit.
// This package finds the common violations at compile time and exports
// the speculation-site inventory the admission controller seeds from.
// Everything is stdlib go/ast + go/types; the CFG construction (cfg.go)
// is in-tree.
//
// The analyzer locates process bodies — function literals, named
// functions, or method values passed to Runtime.Spawn, and the step
// functions of hope.Loop / engine.Loop — and enumerates the body graph
// once (resolver.go): roots, the same-module helpers they call
// (the occ/rpc session helpers run inside their caller's body), and
// closures called through a variable bound to a single literal. The
// runtime layers and internal/obs are never entered, and function
// literals passed to Proc.Effect are exempt: effect callbacks run at
// commit/abort time, outside the replay machinery, and are the
// sanctioned way to touch the outside world. Every rule is a client of
// that one enumeration:
//
//   - nondeterminism: wall-clock reads (time.Now/Since/Until), math/rand,
//     environment reads, map iteration, multi-way select, raw channel
//     receives, go statements, and reads of obs state inside a body.
//
//   - rawio: fmt.Print*/os.Stdout/os.Stderr/log/os.File writes inside a
//     body instead of p.Printf / p.Effect.
//
//   - conflict: a body that unconditionally both Affirms and Denies the
//     same assumption value (the paper's §5.2 user error).
//
//   - escape: interprocedural may-alias dataflow that flags stores
//     reaching memory declared outside the body — assignments to
//     captured variables, writes through captured pointers, fields of
//     captured structs, slice elements and map entries of captured
//     collections, sync/atomic mutators on captured state, raw channel
//     sends, and the same classes reached through helper-call arguments.
//     Context-sensitive: a helper is analyzed once per set of
//     outer-aliased parameters.
//
//   - specleak: a path-sensitive check over the CFG that every Guess of
//     a locally minted, non-escaping AID reaches an Affirm or Deny on
//     all non-panicking paths before the body returns, and that no raw
//     I/O is issued while such a guess is pending. The transfer function
//     understands the Guess idiom: on `if p.Guess(x)` the false edge is
//     the re-execution after a denial, where x is already resolved.
//
// The specleak pass also records every speculation site — position,
// enclosing function, whether the AID is locally minted and whether it
// escapes, the local resolution kinds, the CFG distance from guess to
// nearest resolution, and the maximum tracked speculation depth live at
// the site — exported as JSON (inventory.go).
//
// Soundness stance: the rules are may-analyses tuned to make a clean
// run meaningful rather than to prove absence of all bugs; the known
// false-negative classes are listed in DESIGN.md's "Static analysis"
// section.
//
// A diagnostic can be suppressed with a comment on its line or the line
// above:
//
//	//hopevet:ignore nondeterminism -- measurement harness, body never replays
//
// The rule list is comma-separated; an empty list ignores every rule.
// Use it sparingly, with a reason after "--".
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Rule names.
const (
	RuleNondeterminism = "nondeterminism"
	RuleRawIO          = "rawio"
	RuleConflict       = "conflict"
	RuleEscape         = "escape"
	RuleSpecLeak       = "specleak"
)

// IgnoreDirective is the comment prefix of the escape hatch.
const IgnoreDirective = "//hopevet:ignore"

// legacyIgnoreDirective is the spelling of the retired hopelint binary,
// accepted as the same directive only because benchmark/stats.go:16 and
// benchmark/probes.go:378 still use it and the PR that merged the two
// analyzers could not edit that directory. The next PR that may touch
// benchmark/ should respell those two lines and delete this alias;
// TestNoLegacyDirectiveOutsideBenchmark keeps the rest of the tree clean.
const legacyIgnoreDirective = "//hopelint:ignore"

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Result is one package's analysis output: the diagnostics plus the
// speculation-site inventory rooted in it.
type Result struct {
	Diags []Diagnostic
	Sites []Site
}

// analyzer carries the state of one Analyze call: the package and
// declaration indexes behind body discovery, the enumerated body graph,
// and the findings.
type analyzer struct {
	loader *Loader

	byTypes   map[*types.Package]*Package
	analyzed  []*Package // every package whose files the analysis read
	declIndex map[*Package]map[*types.Func]*ast.FuncDecl
	litIndex  map[*Package]map[types.Object]*ast.FuncLit

	funcs map[token.Pos]*bodyFunc // the body graph, by function position
	order []*bodyFunc             // ... in discovery order

	escapeVisited map[escapeKey]bool

	reported map[reportKey]bool
	diags    []Diagnostic
	sites    []Site
}

type reportKey struct {
	pos  token.Pos
	rule string
}

type escapeKey struct {
	fn   token.Pos
	mask string
}

// errorf records a finding, once per (position, rule): a helper reached
// from several bodies, or under several escape masks, reports once.
func (a *analyzer) errorf(pos token.Pos, rule, format string, args ...any) {
	k := reportKey{pos, rule}
	if a.reported[k] {
		return
	}
	a.reported[k] = true
	a.diags = append(a.diags, Diagnostic{
		Pos:     a.loader.Fset.Position(pos),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyze checks every process body rooted in pkg and returns the
// diagnostics (sorted, suppression applied) and the speculation-site
// inventory. Diagnostics may point into other packages of the module
// when a body calls helpers there.
func Analyze(l *Loader, pkg *Package) (*Result, error) {
	a := &analyzer{
		loader:        l,
		byTypes:       make(map[*types.Package]*Package),
		declIndex:     make(map[*Package]map[*types.Func]*ast.FuncDecl),
		litIndex:      make(map[*Package]map[types.Object]*ast.FuncLit),
		funcs:         make(map[token.Pos]*bodyFunc),
		escapeVisited: make(map[escapeKey]bool),
		reported:      make(map[reportKey]bool),
	}
	a.register(pkg)
	// The runtime layers implement the primitives (engine.Loop spawns
	// its own bookkeeping bodies), and obs is the observation plane
	// those layers call into; the contract does not govern them.
	if !runtimePackages[pkg.Path] && pkg.Path != obsPath {
		roots := a.roots(pkg)
		for _, f := range a.order {
			a.checkSyntax(f)
			a.specFunc(f)
		}
		// escape is context-sensitive, so it walks the same graph from
		// the roots under its own (function, mask) memo.
		for _, f := range roots {
			a.escapeFunc(f, nil, true)
		}
	}
	diags := suppress(l.Fset, a.analyzed, a.diags)
	SortDiagnostics(diags)
	sort.Slice(a.sites, func(i, j int) bool {
		x, y := a.sites[i], a.sites[j]
		if x.File != y.File {
			return x.File < y.File
		}
		if x.Line != y.Line {
			return x.Line < y.Line
		}
		return x.Col < y.Col
	})
	return &Result{Diags: diags, Sites: a.sites}, nil
}

// SortDiagnostics orders diagnostics by file, line, column, then rule.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Rule < diags[j].Rule
	})
}

// ignoredRules parses one comment line; ok reports whether it is an
// ignore directive (either spelling), and rules holds the named rules
// (nil = all).
func ignoredRules(text string) (rules map[string]bool, ok bool) {
	text = strings.TrimSpace(text)
	rest, found := strings.CutPrefix(text, IgnoreDirective)
	if !found {
		rest, found = strings.CutPrefix(text, legacyIgnoreDirective)
	}
	if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return nil, false
	}
	// Strip an optional "-- reason" trailer.
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = rest[:i]
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return nil, true // all rules
	}
	rules = make(map[string]bool)
	for _, r := range strings.Split(rest, ",") {
		if r = strings.TrimSpace(r); r != "" {
			rules[r] = true
		}
	}
	return rules, true
}

// suppress drops diagnostics suppressed by an ignore directive on the
// same line or the line directly above, scanning the comments of every
// file in pkgs.
func suppress(fset *token.FileSet, pkgs []*Package, diags []Diagnostic) []Diagnostic {
	// file → line → rule set (nil entry = all rules ignored).
	ignores := make(map[string]map[int]map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rules, ok := ignoredRules(c.Text)
					if !ok {
						continue
					}
					pos := fset.Position(c.Pos())
					m := ignores[pos.Filename]
					if m == nil {
						m = make(map[int]map[string]bool)
						ignores[pos.Filename] = m
					}
					m[pos.Line] = rules
				}
			}
		}
	}
	match := func(d Diagnostic, line int) bool {
		rules, ok := ignores[d.Pos.Filename][line]
		return ok && (rules == nil || rules[d.Rule])
	}
	kept := diags[:0]
	for _, d := range diags {
		if match(d, d.Pos.Line) || match(d, d.Pos.Line-1) {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// engineCallee returns the engine method a call invokes (Guess, Affirm,
// Deny, FreeOf, NewAID, Send, Effect, ...), or "" if the call is not an
// engine method.
func engineCallee(pkg *Package, call *ast.CallExpr) (string, *types.Func) {
	callee := calleeOf(pkg, call)
	if callee == nil {
		return "", nil
	}
	for _, name := range [...]string{
		"Guess", "Affirm", "Deny", "FreeOf", "Outcome", "NewAID",
		"Send", "SendRetry", "Effect", "Printf",
		"Recv", "RecvMatch", "RecvTimeout", "RecvSettled",
		"Checkpoint",
	} {
		if isEngineFunc(callee, name) {
			return name, callee
		}
	}
	return "", callee
}

// enclosingFuncName names the function declaration whose range contains
// pos, for the site inventory; a body literal at package scope reports
// the file position instead.
func enclosingFuncName(pkg *Package, pos token.Pos) string {
	for _, f := range pkg.Files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || pos < fd.Pos() || pos > fd.End() {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				if t := fd.Recv.List[0].Type; t != nil {
					name = typeName(t) + "." + name
				}
			}
			return name
		}
	}
	return "<package-level>"
}

func typeName(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.StarExpr:
		return typeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return typeName(t.X)
	case *ast.IndexListExpr:
		return typeName(t.X)
	}
	return "?"
}
