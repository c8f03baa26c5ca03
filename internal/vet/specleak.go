package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	sitepkg "hope/internal/site"
)

// The specleak pass. Per analyzed function it runs a forward may-
// analysis over the CFG whose state is the set of unresolved
// speculations: AIDs that were (a) minted in this function by
// p.NewAID(), (b) never escape it (so no other process can ever resolve
// them), and (c) have been guessed on some path reaching the current
// point without a subsequent Affirm/Deny. Any such AID still live at
// the exit block is a leaked speculation: the interval it opened can
// never settle, which pins its effects and every causal dependent for
// the life of the run.
//
// The transfer function knows the engine's Guess contract: Guess
// returns true on the optimistic first execution and false when the
// body is re-executed after a denial — so on `if p.Guess(x)` the false
// edge carries x already-resolved, and `if !p.Guess(x)` the true edge
// does. A resolution registered with `defer p.Affirm(x)` counts at
// every exit reachable from the registration; the deferred set joins by
// intersection, so a defer on one branch does not excuse the other.
//
// Piggybacking on the same state, the pass flags irrevocable raw I/O
// (the rawio rule's classifier) issued while the unresolved set is
// non-empty, and records every Guess site into the inventory.

// specState is the dataflow state at one program point.
type specState struct {
	unresolved map[*types.Var]map[token.Pos]bool // AID var → guess sites
	deferred   map[*types.Var]bool               // deferred Affirm/Deny registered
}

func newSpecState() *specState {
	return &specState{
		unresolved: make(map[*types.Var]map[token.Pos]bool),
		deferred:   make(map[*types.Var]bool),
	}
}

func (s *specState) clone() *specState {
	c := newSpecState()
	for v, poses := range s.unresolved {
		m := make(map[token.Pos]bool, len(poses))
		for p := range poses {
			m[p] = true
		}
		c.unresolved[v] = m
	}
	for v := range s.deferred {
		c.deferred[v] = true
	}
	return c
}

func (s *specState) guess(v *types.Var, pos token.Pos) {
	m := s.unresolved[v]
	if m == nil {
		m = make(map[token.Pos]bool)
		s.unresolved[v] = m
	}
	m[pos] = true
}

func (s *specState) pending() int {
	n := 0
	for _, poses := range s.unresolved {
		n += len(poses)
	}
	return n
}

// merge joins src into dst (unresolved by union, deferred by
// intersection), reporting whether dst changed. A nil dst means the
// block has not been reached yet; the caller installs a clone.
func (dst *specState) merge(src *specState) bool {
	changed := false
	for v, poses := range src.unresolved {
		m := dst.unresolved[v]
		if m == nil {
			m = make(map[token.Pos]bool)
			dst.unresolved[v] = m
		}
		for p := range poses {
			if !m[p] {
				m[p] = true
				changed = true
			}
		}
	}
	for v := range dst.deferred {
		if !src.deferred[v] {
			delete(dst.deferred, v)
			changed = true
		}
	}
	return changed
}

// siteInfo is one Guess site being collected for the inventory.
type siteInfo struct {
	pos        token.Pos
	blk        *block
	obj        *types.Var // nil when the argument is not a bare identifier
	anonFresh  bool       // argument is a direct p.NewAID() call
	pendingMax int
}

type specPass struct {
	a *analyzer
	f *bodyFunc

	minted  map[*types.Var]bool // defined here from p.NewAID()
	escaped map[*types.Var]bool // value leaves the function's hands

	g       *graph
	curBlk  *block
	sites   map[token.Pos]*siteInfo
	order   []token.Pos
	resolve map[*block]map[*types.Var]bool // blocks containing Affirm/Deny of var
}

// specFunc analyzes one function of the body graph.
func (a *analyzer) specFunc(f *bodyFunc) {
	s := &specPass{
		a: a, f: f,
		minted:  make(map[*types.Var]bool),
		escaped: make(map[*types.Var]bool),
		sites:   make(map[token.Pos]*siteInfo),
		resolve: make(map[*block]map[*types.Var]bool),
	}
	s.classifyAIDs()
	s.g = buildCFG(f.body, f.pkg.Info)
	s.run()
}

// classifyAIDs finds the locally minted AID variables and decides which
// of them escape: a minted AID used anywhere other than as the direct
// argument of Guess/Affirm/Deny/FreeOf/Outcome, in a comparison, or as
// the target of a re-mint, may be resolvable by someone else — the pass
// stays silent about it (a documented false-negative class; flagging
// every handed-off AID would bury the real leaks).
func (s *specPass) classifyAIDs() {
	// Pass 1: minted variables.
	ast.Inspect(s.f.body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok != token.DEFINE || len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if call, ok := ast.Unparen(st.Rhs[i]).(*ast.CallExpr); ok {
					if name, _ := engineCallee(s.f.pkg, call); name == "NewAID" {
						if v, ok := s.f.pkg.Info.Defs[id].(*types.Var); ok {
							s.minted[v] = true
						}
					}
				}
			}
		}
		return true
	})
	// Pass 2: escape classification by use context.
	var stack []ast.Node
	ast.Inspect(s.f.body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := s.f.pkg.Info.Uses[id].(*types.Var)
		if !ok || !s.minted[v] {
			return true
		}
		if s.useEscapes(id, v, stack) {
			s.escaped[v] = true
		}
		return true
	})
}

// useEscapes classifies one use of a minted AID given the ancestor
// stack (stack[len-1] == id).
func (s *specPass) useEscapes(id *ast.Ident, v *types.Var, stack []ast.Node) bool {
	// Captured by a nested function literal: the closure may resolve or
	// forward it at any time.
	for _, n := range stack[:len(stack)-1] {
		if _, ok := n.(*ast.FuncLit); ok {
			return true
		}
	}
	if len(stack) < 2 {
		return true
	}
	switch parent := stack[len(stack)-2].(type) {
	case *ast.CallExpr:
		// Direct argument of a resolution-reading engine call is fine.
		name, _ := engineCallee(s.f.pkg, parent)
		switch name {
		case "Guess", "Affirm", "Deny", "FreeOf", "Outcome":
			for _, arg := range parent.Args {
				if ast.Unparen(arg) == id {
					return false
				}
			}
		}
		return true
	case *ast.BinaryExpr:
		// Comparisons read the AID without letting anyone resolve it.
		return !(parent.Op == token.EQL || parent.Op == token.NEQ)
	case *ast.AssignStmt:
		for i, lhs := range parent.Lhs {
			if lhs == id {
				// Writing the variable: re-minting keeps it tracked,
				// any other right-hand side aliases the unknown.
				if i < len(parent.Rhs) {
					if call, ok := ast.Unparen(parent.Rhs[i]).(*ast.CallExpr); ok {
						if name, _ := engineCallee(s.f.pkg, call); name == "NewAID" {
							return false
						}
					}
				}
				return true
			}
		}
		return true // used on a RHS: aliased into another variable
	case *ast.ParenExpr:
		return s.useEscapes(id, v, stack[:len(stack)-1])
	}
	return true
}

// tracked reports whether the pass follows v's resolution state.
func (s *specPass) tracked(v *types.Var) bool {
	return v != nil && s.minted[v] && !s.escaped[v]
}

// run executes the fixpoint and reports.
func (s *specPass) run() {
	in := make([]*specState, len(s.g.blocks))
	in[s.g.entry.index] = newSpecState()
	work := []*block{s.g.entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		if in[b.index] == nil {
			continue
		}
		s.curBlk = b
		st := in[b.index].clone()
		for _, n := range b.nodes {
			s.transferNode(st, n)
		}
		if b.cond != nil {
			s.transferExpr(st, b.cond)
		}
		for _, succ := range b.succs {
			out := st
			if b.cond != nil && (succ == b.tsucc || succ == b.fsucc) {
				out = st.clone()
				s.refine(out, b.cond, succ == b.tsucc)
			}
			if in[succ.index] == nil {
				in[succ.index] = out.clone()
				work = append(work, succ)
			} else if in[succ.index].merge(out) {
				work = append(work, succ)
			}
		}
	}

	// Report leaks at the exit block.
	if exit := in[s.g.exit.index]; exit != nil {
		for v, poses := range exit.unresolved {
			if exit.deferred[v] {
				continue
			}
			for pos := range poses {
				s.a.errorf(pos, RuleSpecLeak,
					"assumption %q may reach the end of the body unresolved: some non-panicking path from this guess has no Affirm/Deny, and the AID never leaves the body, so no other process can resolve it; resolve it on every path (the else-arm of `if p.Guess(%s)` is already resolved) or send it to a resolver",
					v.Name(), v.Name())
			}
		}
	}
	s.emitSites()
}

// transferNode applies one CFG node to the state.
func (s *specPass) transferNode(st *specState, n ast.Node) {
	switch n := n.(type) {
	case *ast.RangeStmt:
		// Range header: only X is evaluated here; the body has its own
		// blocks.
		s.transferExpr(st, n.X)
	case *ast.DeferStmt:
		// `defer p.Affirm(x)` / `defer p.Deny(x)` resolves at every
		// exit reachable from the registration.
		if name, _ := engineCallee(s.f.pkg, n.Call); name == "Affirm" || name == "Deny" {
			if len(n.Call.Args) == 1 {
				if v := s.identVar(n.Call.Args[0]); s.tracked(v) {
					st.deferred[v] = true
					s.markResolve(v)
					return
				}
			}
		}
		// Otherwise the deferred call's arguments are still evaluated
		// now; a closure capturing an AID already escaped it in the
		// classification pass.
		for _, arg := range n.Call.Args {
			s.transferExpr(st, arg)
		}
	default:
		s.transferExpr(st, n)
	}
}

// transferExpr walks a statement or expression in evaluation order,
// applying Guess/Affirm/Deny effects and the speculative-I/O check.
func (s *specPass) transferExpr(st *specState, n ast.Node) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false // a literal is a value; its body runs elsewhere
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, callee := engineCallee(s.f.pkg, call)
		switch name {
		case "Guess":
			s.applyGuess(st, call)
		case "Affirm", "Deny":
			if len(call.Args) == 1 {
				if v := s.identVar(call.Args[0]); s.tracked(v) {
					delete(st.unresolved, v)
					s.markResolve(v)
				}
			}
		case "":
			if msg := rawIOMessage(s.f.pkg, call, callee); msg != "" && st.pending() > 0 {
				s.a.errorf(call.Pos(), RuleSpecLeak,
					"irrevocable I/O while assumption(s) %s are unresolved: the output is visible even if the speculation is denied; resolve the guess first or route the write through p.Printf/p.Effect",
					s.pendingNames(st))
			}
		}
		return true
	})
}

// applyGuess records the site and the new unresolved speculation.
func (s *specPass) applyGuess(st *specState, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	pos := call.Pos()
	site := s.sites[pos]
	if site == nil {
		site = &siteInfo{pos: pos, blk: s.curBlk}
		site.obj = s.identVar(call.Args[0])
		if inner, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok {
			if n, _ := engineCallee(s.f.pkg, inner); n == "NewAID" {
				site.anonFresh = true
			}
		}
		s.sites[pos] = site
		s.order = append(s.order, pos)
	}
	if p := st.pending(); p > site.pendingMax {
		site.pendingMax = p
	}
	if site.anonFresh {
		s.a.errorf(pos, RuleSpecLeak,
			"guessed assumption is discarded: the AID from p.NewAID() is never bound, so nothing can ever Affirm or Deny it and the speculative interval pins the tracker for the life of the run")
		return
	}
	if s.tracked(site.obj) {
		st.guess(site.obj, pos)
	}
}

// refine applies branch knowledge from a condition: Guess returns false
// only on the re-execution after a denial, where the assumption is
// already resolved.
func (s *specPass) refine(st *specState, cond ast.Expr, branchTrue bool) {
	cond = ast.Unparen(cond)
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		s.refine(st, u.X, !branchTrue)
		return
	}
	call, ok := cond.(*ast.CallExpr)
	if !ok {
		return
	}
	if name, _ := engineCallee(s.f.pkg, call); name != "Guess" || len(call.Args) != 1 {
		return
	}
	if v := s.identVar(call.Args[0]); s.tracked(v) && !branchTrue {
		delete(st.unresolved, v) // denial replay: already resolved
	}
}

func (s *specPass) identVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := s.f.pkg.Info.Uses[id].(*types.Var)
	return v
}

// markResolve records that the current block resolves v, for the
// inventory's resolution-distance metric.
func (s *specPass) markResolve(v *types.Var) {
	m := s.resolve[s.curBlk]
	if m == nil {
		m = make(map[*types.Var]bool)
		s.resolve[s.curBlk] = m
	}
	m[v] = true
}

func (s *specPass) pendingNames(st *specState) string {
	var names []string
	for v := range st.unresolved {
		names = append(names, fmt.Sprintf("%q", v.Name()))
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// emitSites converts the collected guess sites into inventory entries.
func (s *specPass) emitSites() {
	for _, pos := range s.order {
		site := s.sites[pos]
		p := s.a.loader.Fset.Position(pos)
		key := sitepkg.Key(p.Filename, p.Line)
		// The inventory names files from the module root, as the site
		// key does, so it reads the same from any checkout.
		file := p.Filename
		if rel, err := filepath.Rel(s.a.loader.Root, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		entry := Site{
			File:                  file,
			Line:                  p.Line,
			Col:                   p.Column,
			Package:               s.f.pkg.Path,
			Func:                  enclosingFuncName(s.f.pkg, pos),
			SiteKey:               key,
			SiteHash:              sitepkg.Hash(key),
			Arity:                 1,
			ResolveDistanceBlocks: -1,
			MaxPendingAtEntry:     site.pendingMax,
		}
		switch {
		case site.anonFresh:
			entry.AIDLocal = true
		case site.obj != nil && s.minted[site.obj]:
			entry.AIDLocal = true
			entry.Escapes = s.escaped[site.obj]
		default:
			entry.Escapes = true // minted elsewhere: resolvable remotely
		}
		if v := site.obj; v != nil {
			entry.Resolutions = s.lexicalResolutions(v)
			entry.ResolveDistanceBlocks = s.g.distance(site.blk, func(b *block) bool {
				return s.resolve[b][v]
			})
		}
		s.a.sites = append(s.a.sites, entry)
	}
}

// lexicalResolutions lists the resolution kinds applied to v anywhere
// in the function, for the inventory.
func (s *specPass) lexicalResolutions(v *types.Var) []string {
	kinds := make(map[string]bool)
	ast.Inspect(s.f.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, _ := engineCallee(s.f.pkg, call)
		switch name {
		case "Affirm", "Deny", "FreeOf":
			if len(call.Args) == 1 && s.identVar(call.Args[0]) == v {
				kinds[strings.ToLower(name)] = true
			}
		}
		return true
	})
	var out []string
	for k := range kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
