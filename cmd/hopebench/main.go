// Command hopebench regenerates the experiment tables recorded in
// EXPERIMENTS.md: the paper's own claims (E1, E2), the optimism
// crossover (E3) and the substrate comparisons (E6–E10).
//
//	hopebench              # run everything
//	hopebench -exp E1,E3   # run a subset
//	hopebench -list        # list experiments
//
// It renders tables for reading. Numbers that are guarded live
// elsewhere, one oracle per claim, listed in the ledger at the top of
// EXPERIMENTS.md: the repo's benchmark (go run ./benchmark,
// BENCHMARK.json), the shape tests in internal/experiments, the
// scenario differentials and soaks, and the model checker.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hope/internal/experiments"
)

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment IDs (see -list) or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-3s %s\n", e.ID, e.Title)
		}
		return
	}

	selected, err := selectExperiments(all, *expFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hopebench: %v\n", err)
		os.Exit(2)
	}
	for _, e := range selected {
		fmt.Printf("== %s: %s ==\n\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "hopebench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

// selectExperiments resolves an -exp value against the registered
// experiments: "all", or a comma-separated list of IDs (case and
// surrounding space ignored). The result keeps registration order. An
// ID that names no experiment is an error, so a typo cannot pass as a
// shorter run.
func selectExperiments(all []experiments.Experiment, spec string) ([]experiments.Experiment, error) {
	if spec == "all" {
		return all, nil
	}
	valid := make([]string, len(all))
	known := make(map[string]bool, len(all))
	for i, e := range all {
		valid[i] = e.ID
		known[e.ID] = true
	}
	want := map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if !known[id] {
			return nil, fmt.Errorf("unknown experiment %q; valid IDs: %s", id, strings.Join(valid, ","))
		}
		want[id] = true
	}
	var selected []experiments.Experiment
	for _, e := range all {
		if want[e.ID] {
			selected = append(selected, e)
		}
	}
	return selected, nil
}
