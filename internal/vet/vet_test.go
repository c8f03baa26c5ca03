package vet

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"hope/internal/site"
)

// Golden-file tests: each fixture package under testdata/src marks its
// expected diagnostics with trailing comments of the form
//
//	expr // want `regexp` `another regexp`
//
// matched against "[rule] message". Every diagnostic must match an
// unconsumed want on its line, and every want must be matched by
// exactly one diagnostic.

// sharedLoader caches stdlib type-checking across fixtures; every
// fixture lives in the same module, so one loader serves them all.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader("testdata")
})

var (
	wantRE    = regexp.MustCompile("//\\s*want\\s+(.*)$")
	wantArgRE = regexp.MustCompile("`([^`]+)`")
)

func loadFixture(t *testing.T, name string, includeTests bool) (*Loader, *Package, *Result) {
	t.Helper()
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", name), includeTests)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(loader, pkg)
	if err != nil {
		t.Fatal(err)
	}
	return loader, pkg, res
}

func runFixture(t *testing.T, name string, includeTests bool) {
	t.Helper()
	loader, pkg, res := loadFixture(t, name, includeTests)

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	consumed := make(map[key][]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := loader.Fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				args := wantArgRE.FindAllStringSubmatch(m[1], -1)
				if len(args) == 0 {
					t.Errorf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
					continue
				}
				for _, arg := range args {
					re, err := regexp.Compile(arg[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern: %v", pos.Filename, pos.Line, err)
					}
					wants[k] = append(wants[k], re)
					consumed[k] = append(consumed[k], false)
				}
			}
		}
	}

	for _, d := range res.Diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		matched := false
		for i, re := range wants[k] {
			if !consumed[k][i] && re.MatchString("["+d.Rule+"] "+d.Message) {
				consumed[k][i] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for i, re := range res {
			if !consumed[k][i] {
				t.Errorf("%s:%d: no diagnostic matched %q", k.file, k.line, re)
			}
		}
	}
}

func TestNondeterminismRule(t *testing.T) { runFixture(t, "nondet", false) }
func TestRawIORule(t *testing.T)          { runFixture(t, "rawio", false) }
func TestConflictRule(t *testing.T)       { runFixture(t, "conflict", false) }
func TestDiscoveryEdgeCases(t *testing.T) { runFixture(t, "edge", false) }

// Calls into the obs layer are exempt (runtime-side, write-only), but
// nondeterminism in the body itself is still flagged.
func TestObsExemption(t *testing.T) { runFixture(t, "obsuse", false) }

// Test files are excluded by default and analyzed with -tests.
func TestTestFilesExcludedByDefault(t *testing.T) { runFixture(t, "testmode", false) }
func TestTestFilesIncluded(t *testing.T)          { runFixture(t, "testmode", true) }

// Escape fixtures.
func TestEscapeCapturedAssignments(t *testing.T)   { runFixture(t, "capture", false) }
func TestEscapePointerAndFieldStores(t *testing.T) { runFixture(t, "escptr", false) }
func TestEscapeCollections(t *testing.T)           { runFixture(t, "esccoll", false) }
func TestEscapeAliasedArgs(t *testing.T)           { runFixture(t, "escalias", false) }
func TestEscapeSyncAtomicAndSends(t *testing.T)    { runFixture(t, "escsync", false) }
func TestEscapeCallbacksExempt(t *testing.T)       { runFixture(t, "esccb", false) }
func TestEscapeCheckpointState(t *testing.T)       { runFixture(t, "esccp", false) }

// Specleak fixtures.
func TestSpecLeakDroppedGuess(t *testing.T) { runFixture(t, "leakdrop", false) }
func TestSpecLeakBranchOnly(t *testing.T)   { runFixture(t, "leakbranch", false) }
func TestSpecLeakDefer(t *testing.T)        { runFixture(t, "leakdefer", false) }
func TestSpecLeakEscapedAID(t *testing.T)   { runFixture(t, "leakescape", false) }
func TestSpeculativeIO(t *testing.T)        { runFixture(t, "leakio", false) }
func TestIgnoreDirective(t *testing.T)      { runFixture(t, "vetignore", false) }

// TestClosureThroughVariable pins the shared body graph: a closure
// defined outside the body and called through a variable bound to that
// one literal runs under replay, so the guess it leaks and the captured
// store it makes are both findings. Before the analyzers merged, only
// the syntactic walk followed such a call; specleak never saw the guess
// and escape never saw the store.
func TestClosureThroughVariable(t *testing.T) { runFixture(t, "leakclosure", false) }

func TestIgnoredRulesParsing(t *testing.T) {
	cases := []struct {
		text  string
		ok    bool
		rules []string // nil with ok=true means "all rules"
	}{
		{"//hopevet:ignore", true, nil},
		{"//hopevet:ignore -- reason", true, nil},
		{"//hopevet:ignore rawio", true, []string{"rawio"}},
		{"//hopevet:ignore rawio,escape -- reason", true, []string{"rawio", "escape"}},
		{"//hopevet:ignore nondeterminism -- has -- dashes", true, []string{"nondeterminism"}},
		{"//hopelint:ignore", true, nil},
		{"//hopelint:ignore nondeterminism -- legacy spelling", true, []string{"nondeterminism"}},
		{"//hopevet:ignorex", false, nil},
		{"//hopelint:ignorex", false, nil},
		{"// plain comment", false, nil},
	}
	for _, c := range cases {
		rules, ok := ignoredRules(c.text)
		if ok != c.ok {
			t.Errorf("ignoredRules(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if c.rules == nil {
			if rules != nil {
				t.Errorf("ignoredRules(%q) = %v, want all-rules (nil)", c.text, rules)
			}
			continue
		}
		if len(rules) != len(c.rules) {
			t.Errorf("ignoredRules(%q) = %v, want %v", c.text, rules, c.rules)
			continue
		}
		for _, r := range c.rules {
			if !rules[r] {
				t.Errorf("ignoredRules(%q) missing rule %q", c.text, r)
			}
		}
	}
}

// TestDirectiveSpellingsSuppress drives both spellings through the one
// comment scan: each suppresses the named rule on its own line and the
// line below, and nothing else.
func TestDirectiveSpellingsSuppress(t *testing.T) {
	const src = `package p

func f() {
	_ = 1 //hopevet:ignore rawio -- canonical, same line
	//hopelint:ignore rawio -- legacy, line above
	_ = 2
	_ = 3 //hopelint:ignore escape -- wrong rule
	_ = 4
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	for line := 4; line <= 8; line++ {
		diags = append(diags, Diagnostic{Pos: token.Position{Filename: "p.go", Line: line}, Rule: RuleRawIO})
	}
	kept := suppress(fset, []*Package{{Files: []*ast.File{file}}}, diags)
	var lines []int
	for _, d := range kept {
		lines = append(lines, d.Pos.Line)
	}
	// Line 5 is the legacy directive's own line; 7 names another rule
	// (which also covers 8, the line below it).
	if want := []int{7, 8}; len(lines) != 2 || lines[0] != want[0] || lines[1] != want[1] {
		t.Errorf("kept findings on lines %v, want %v", lines, want)
	}
}

// TestNoLegacyDirectiveOutsideBenchmark pins the migration: the
// //hopelint:ignore spelling survives only in benchmark/, which the
// merging PR could not edit.
func TestNoLegacyDirectiveOutsideBenchmark(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || path == filepath.Join(root, "benchmark")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil // syntax-broken fixtures are not this test's business
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, legacyIgnoreDirective) {
					t.Errorf("%s: legacy directive %q; spell it %s", fset.Position(c.Pos()), c.Text, IgnoreDirective)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestObsAllowlistIsWriteOnly pins the contract behind the narrowed
// obs exemption: every allowlisted hook must exist on some obs
// type and return nothing, so a body calling it cannot read observation
// state back into the computation.
func TestObsAllowlistIsWriteOnly(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("..", "obs"), false)
	if err != nil {
		t.Fatal(err)
	}
	found := make(map[string]bool)
	scope := pkg.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := 0; i < ms.Len(); i++ {
			fn, ok := ms.At(i).Obj().(*types.Func)
			if !ok || !writeOnlyObsHooks[fn.Name()] {
				continue
			}
			found[fn.Name()] = true
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Results().Len() != 0 {
				t.Errorf("obs.%s.%s is allowlisted as write-only but returns %d value(s)",
					name, fn.Name(), sig.Results().Len())
			}
		}
	}
	for name := range writeOnlyObsHooks {
		if !found[name] {
			t.Errorf("allowlisted hook %q not found on any obs type", name)
		}
	}
}

// TestSiteInventory checks the static features recorded for each guess
// shape in the leakdrop fixture: a tracked leak, an anonymous discard,
// and a properly resolved guess.
func TestSiteInventory(t *testing.T) {
	_, _, res := loadFixture(t, "leakdrop", false)
	if len(res.Sites) != 3 {
		t.Fatalf("got %d sites, want 3: %+v", len(res.Sites), res.Sites)
	}
	x, anon, y := res.Sites[0], res.Sites[1], res.Sites[2]

	if !x.AIDLocal || x.Escapes {
		t.Errorf("site x: AIDLocal=%v Escapes=%v, want local non-escaping", x.AIDLocal, x.Escapes)
	}
	if x.ResolveDistanceBlocks != -1 || len(x.Resolutions) != 0 {
		t.Errorf("site x: distance=%d resolutions=%v, want -1 and none", x.ResolveDistanceBlocks, x.Resolutions)
	}
	if !anon.AIDLocal || anon.ResolveDistanceBlocks != -1 {
		t.Errorf("anonymous site: AIDLocal=%v distance=%d, want local and -1", anon.AIDLocal, anon.ResolveDistanceBlocks)
	}
	if !y.AIDLocal || y.Escapes {
		t.Errorf("site y: AIDLocal=%v Escapes=%v, want local non-escaping", y.AIDLocal, y.Escapes)
	}
	if y.ResolveDistanceBlocks < 0 {
		t.Errorf("site y: distance=%d, want >= 0 (affirm is reachable)", y.ResolveDistanceBlocks)
	}
	if len(y.Resolutions) != 1 || y.Resolutions[0] != "affirm" {
		t.Errorf("site y: resolutions=%v, want [affirm]", y.Resolutions)
	}
	for _, s := range res.Sites {
		if s.Package == "" || s.Func == "" || s.Arity != 1 {
			t.Errorf("site missing identity fields: %+v", s)
		}
		// The canonical identity must join with the runtime's notion of
		// the same site (internal/site): derived from file:line, hashed
		// with the shared fold.
		if want := site.Key(s.File, s.Line); s.SiteKey != want {
			t.Errorf("site key %q, want %q", s.SiteKey, want)
		}
		if want := site.Hash(s.SiteKey); s.SiteHash != want {
			t.Errorf("site hash %d, want %d", s.SiteHash, want)
		}
	}
}

// TestInventoryFilesModuleRelative checks that each inventory entry
// names its file from the module root, not from wherever the module is
// checked out, and that the file is the one its site key names.
func TestInventoryFilesModuleRelative(t *testing.T) {
	_, _, res := loadFixture(t, "leakdrop", false)
	for _, s := range res.Sites {
		keyFile, _, _ := strings.Cut(s.SiteKey, ":")
		if strings.HasPrefix(s.File, "/") || !strings.HasSuffix(s.File, keyFile) {
			t.Errorf("site %s: file %q, want module-relative and ending in %q", s.SiteKey, s.File, keyFile)
		}
	}
	if len(res.Sites) == 0 {
		t.Fatal("fixture has no sites")
	}
}

func TestWriteInventory(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteInventory(&buf, "hope", nil); err != nil {
		t.Fatal(err)
	}
	var inv Inventory
	if err := json.Unmarshal(buf.Bytes(), &inv); err != nil {
		t.Fatalf("inventory is not valid JSON: %v\n%s", err, buf.String())
	}
	if inv.Schema != InventorySchema || inv.Module != "hope" {
		t.Errorf("header = %q/%q, want %q/hope", inv.Schema, inv.Module, InventorySchema)
	}
	if inv.Sites == nil {
		t.Error("sites should marshal as an empty array, not null")
	}
}
