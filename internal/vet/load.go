package vet

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the parsed files plus the
// type information every rule pass consumes.
type Package struct {
	Path  string // import path ("hope/internal/engine") or synthetic test path
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module, sharing a
// FileSet, a standard-library importer and a package cache so that type
// objects are identical across the whole analysis (a *types.Func seen at
// a call site in package A is the same object as the one defined in
// package B). Everything is stdlib: go/parser for syntax, go/types for
// checking, go/importer ("source") for the standard library.
type Loader struct {
	Fset   *token.FileSet
	Root   string // module root directory (holds go.mod)
	Module string // module path from go.mod

	std      types.Importer
	pkgs     map[string]*Package // by import path, non-test files only
	building map[string]bool     // import-cycle guard
}

// NewLoader creates a loader for the module rooted at or above dir.
func NewLoader(dir string) (*Loader, error) {
	root, module, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:     fset,
		Root:     root,
		Module:   module,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     make(map[string]*Package),
		building: make(map[string]bool),
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func findModule(dir string) (root, module string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("vet: no module line in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("vet: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// inModule reports whether path names a package inside the loaded module.
func (l *Loader) inModule(path string) bool {
	return path == l.Module || strings.HasPrefix(path, l.Module+"/")
}

// dirFor maps an in-module import path to its directory.
func (l *Loader) dirFor(path string) string {
	return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")))
}

// pathFor maps a directory under the module root to its import path.
func (l *Loader) pathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.Module, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("vet: %s is outside module %s", dir, l.Module)
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// Import implements types.Importer: in-module packages are loaded from
// source through the cache; everything else is delegated to the
// standard-library importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if l.inModule(path) {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}

// load parses and type-checks the in-module package at path (non-test
// files only), caching the result.
func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.building[path] {
		return nil, fmt.Errorf("vet: import cycle through %s", path)
	}
	l.building[path] = true
	defer delete(l.building, path)

	dir := l.dirFor(path)
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("vet: %s: %w", path, err)
	}
	p, err := l.check(path, dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// LoadDir loads the package in dir for analysis. With includeTests, the
// package's own _test.go files (same-package tests) are type-checked in:
// the resulting Package is NOT cached for import resolution, so importers
// always see the production shape of the package. External test packages
// (package foo_test) are not loaded; their bodies exercise the public API
// from outside and are out of scope for this analyzer.
func (l *Loader) LoadDir(dir string, includeTests bool) (*Package, error) {
	path, err := l.pathFor(dir)
	if err != nil {
		return nil, err
	}
	if !includeTests {
		return l.load(path)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("vet: %s: %w", dir, err)
	}
	return l.check(path, dir, append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...))
}

// check parses the named files and runs the type checker.
func (l *Loader) check(path, dir string, names []string) (*Package, error) {
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("vet: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("vet: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: files, Pkg: pkg, Info: info}, nil
}

// ExpandPatterns resolves CLI package patterns to directories. A pattern
// is either a directory ("./internal/engine", "."), or a recursive
// pattern ending in "/..." which walks the tree, skipping testdata,
// vendor, and hidden or underscore-prefixed directories — the same
// convention as the go tool, so fixture packages under testdata are
// never analyzed by accident.
func ExpandPatterns(patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "/...")
		if pat == "..." {
			base, recursive = ".", true
		}
		if base == "" {
			base = "."
		}
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains any buildable .go file.
func hasGoFiles(dir string) bool {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return false
	}
	return len(bp.GoFiles) > 0 || len(bp.TestGoFiles) > 0
}
