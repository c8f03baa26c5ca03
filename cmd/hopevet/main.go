// Command hopevet statically checks HOPE process bodies against the
// engine's piecewise-determinism contract and exports the
// speculation-site inventory (see internal/vet and the "Static
// analysis" section of DESIGN.md).
//
// Usage:
//
//	go run ./cmd/hopevet [-tests] [-inventory file] [-diag file] [packages ...]
//
// Each argument is a directory ("./examples/pipeline") or a recursive
// pattern ("./..."); with no arguments, ./... is analyzed. Directories
// named testdata or vendor, and hidden or underscore-prefixed
// directories, are skipped by recursive patterns, matching the go
// tool's convention. With -tests, each package's own _test.go files
// (same-package tests) are analyzed too.
//
// Diagnostics are printed one per line as
//
//	file:line:col: [rule] message
//
// where rule is one of:
//
//	nondeterminism  wall-clock, randomness, environment and obs-state
//	                reads, map iteration, multi-way select, raw channel
//	                receives and go statements inside a body
//	rawio           output or filesystem writes that bypass
//	                p.Printf / p.Effect
//	conflict        a body that unconditionally both Affirms and Denies
//	                the same assumption
//	escape          stores from a process body into memory declared
//	                outside it — captured variables, pointers, fields,
//	                slice elements, map entries, sync/atomic mutators,
//	                raw channel sends, and the same stores reached
//	                through helper calls
//	specleak        a Guess of a locally minted, non-escaping AID that
//	                some non-panicking path leaves unresolved, a guessed
//	                AID that is discarded outright, or irrevocable I/O
//	                issued while a speculation is pending
//
// -inventory writes the speculation-site inventory (every Guess site
// with its static shape; schema hope.siteinventory/v1) as JSON;
// -diag writes the diagnostics as JSON. Both files are written even
// when findings make the exit code non-zero, so CI can upload them.
//
// A finding can be suppressed — sparingly, with a reason — by a comment
// on the same line or the line above:
//
//	//hopevet:ignore specleak -- chain-depth harness; the leak is the workload
//
// Exit codes:
//
//	0  no findings
//	1  at least one finding
//	2  usage or load error (unparseable package, unresolvable imports)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hope/internal/vet"
)

// diagJSON is the -diag file schema: one entry per finding.
type diagJSON struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func main() {
	tests := flag.Bool("tests", false, "also analyze each package's own _test.go files")
	invPath := flag.String("inventory", "", "write the speculation-site inventory JSON to this file")
	diagPath := flag.String("diag", "", "write diagnostics JSON to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hopevet [-tests] [-inventory file] [-diag file] [packages ...]\n\n"+
			"Checks HOPE process bodies against the piecewise-determinism contract and\n"+
			"writes the speculation-site inventory. Packages default to ./... ; see\n"+
			"cmd/hopevet/main.go for details.\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := vet.ExpandPatterns(patterns)
	if err != nil {
		fatal(err)
	}
	if len(dirs) == 0 {
		fatal(fmt.Errorf("no packages matched"))
	}
	loader, err := vet.NewLoader(dirs[0])
	if err != nil {
		fatal(err)
	}

	// Transitive analysis can surface the same helper finding from
	// several entry packages; report each once. Sites dedupe the same
	// way: a body analyzed from package A's roots reappears when B's
	// roots reach it.
	seenDiag := make(map[string]bool)
	seenSite := make(map[string]bool)
	var diags []vet.Diagnostic
	var sites []vet.Site
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir, *tests)
		if err != nil {
			fatal(err)
		}
		res, err := vet.Analyze(loader, pkg)
		if err != nil {
			fatal(err)
		}
		for _, d := range res.Diags {
			if line := d.String(); !seenDiag[line] {
				seenDiag[line] = true
				diags = append(diags, d)
			}
		}
		for _, s := range res.Sites {
			key := fmt.Sprintf("%s:%d:%d", s.File, s.Line, s.Col)
			if !seenSite[key] {
				seenSite[key] = true
				sites = append(sites, s)
			}
		}
	}
	vet.SortDiagnostics(diags)

	if *invPath != "" {
		f, err := os.Create(*invPath)
		if err != nil {
			fatal(err)
		}
		if err := vet.WriteInventory(f, loader.Module, sites); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if *diagPath != "" {
		out := make([]diagJSON, 0, len(diags))
		for _, d := range diags {
			out = append(out, diagJSON{
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Rule: d.Rule, Message: d.Message,
			})
		}
		data, err := json.MarshalIndent(map[string]any{
			"schema":      "hope.vetdiag/v1",
			"diagnostics": out,
		}, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*diagPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hopevet: %d finding(s), %d speculation site(s)\n", len(diags), len(sites))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "hopevet: clean; %d speculation site(s)\n", len(sites))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hopevet: %v\n", err)
	os.Exit(2)
}
