// Command editor demonstrates optimistic co-operative editing — one of
// the application domains the paper's conclusion names ("co-operative
// work [5]", citing Cormack's lock-free conference editing). Several
// editors hold cached replicas of a shared document and apply edits
// locally with zero latency under the assumption that their view of each
// line is current; the primary validates in parallel. Concurrent edits to
// different lines all commit optimistically; colliding edits to the same
// line are denied, rolled back and merged on the pessimistic path —
// lock-free, with no lost updates.
//
//	go run ./examples/editor -editors 3 -edits 8 -latency 2ms
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"hope"
	"hope/internal/occ"
)

const lines = 6

func main() {
	editors := flag.Int("editors", 3, "concurrent editors")
	edits := flag.Int("edits", 8, "edits per editor")
	latency := flag.Duration("latency", 2*time.Millisecond, "one-way latency to the document server")
	seed := flag.Int64("seed", 1, "edit schedule seed")
	flag.Parse()

	if err := run(*editors, *edits, *latency, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "editor:", err)
		os.Exit(1)
	}
}

func lineKey(i int) string { return fmt.Sprintf("line%d", i) }

func run(editors, edits int, latency time.Duration, seed int64) error {
	rt := hope.New(hope.WithPolicy(hope.Policy{
		Output:  os.Stdout,
		Latency: func(from, to string) time.Duration { return latency },
	}))
	defer rt.Shutdown()

	initial := make(map[string]any, lines)
	for i := 0; i < lines; i++ {
		initial[lineKey(i)] = "·"
	}
	if err := occ.ServePrimary(rt, "doc", initial); err != nil {
		return err
	}

	// Deterministic edit schedules: which line each editor touches.
	schedule := func(e int) []int {
		rng := rand.New(rand.NewSource(seed + int64(e)))
		out := make([]int, edits)
		for i := range out {
			out[i] = rng.Intn(lines)
		}
		return out
	}

	start := time.Now()
	for e := 0; e < editors; e++ {
		e := e
		name := fmt.Sprintf("editor%c", 'A'+e)
		plan := schedule(e)
		if err := rt.Spawn(name, func(p *hope.Proc) error {
			s := occ.NewSession(p, "doc")
			for i, line := range plan {
				key := lineKey(line)
				// Re-sync the line occasionally, as an editor UI would.
				if i%3 == 0 {
					if _, err := s.Refresh(key); err != nil {
						return err
					}
				}
				// Append this editor's mark to the line — a
				// read-modify-write merged on conflict.
				mark := fmt.Sprintf("%c%d", 'A'+e, i)
				if _, err := s.Update(key, func(v any) any {
					return strings.TrimLeft(v.(string)+" "+mark, "· ")
				}); err != nil {
					return err
				}
			}
			p.Printf("%s: optimistic=%d conflicts=%d\n", name, s.OptimisticCommits, s.Conflicts)
			return nil
		}); err != nil {
			return err
		}
	}

	rt.Quiesce()
	elapsed := time.Since(start)

	// Audit: every edit mark must appear exactly once across the doc.
	if err := rt.Spawn("auditor", func(p *hope.Proc) error {
		s := occ.NewSession(p, "doc")
		var doc []string
		all := map[string]int{}
		for i := 0; i < lines; i++ {
			v, err := s.Refresh(lineKey(i))
			if err != nil {
				return err
			}
			text := v.(string)
			doc = append(doc, fmt.Sprintf("  %d │ %s", i, text))
			for _, tok := range strings.Fields(text) {
				if tok != "·" {
					all[tok]++
				}
			}
		}
		p.Printf("final document (%v):\n%s\n", elapsed.Round(time.Millisecond), strings.Join(doc, "\n"))

		var missing, dup []string
		for e := 0; e < editors; e++ {
			for i := 0; i < edits; i++ {
				mark := fmt.Sprintf("%c%d", 'A'+e, i)
				switch all[mark] {
				case 0:
					missing = append(missing, mark)
				case 1:
				default:
					dup = append(dup, mark)
				}
			}
		}
		sort.Strings(missing)
		sort.Strings(dup)
		if len(missing) > 0 || len(dup) > 0 {
			return fmt.Errorf("lost edits %v, duplicated edits %v", missing, dup)
		}
		p.Printf("all %d edits present exactly once ✓ (lock-free, no lost updates)\n", editors*edits)
		return nil
	}); err != nil {
		return err
	}
	rt.Quiesce()
	rt.Shutdown()
	for _, err := range rt.Wait() {
		if err != nil {
			return err
		}
	}
	return nil
}
