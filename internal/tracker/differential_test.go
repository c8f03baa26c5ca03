package tracker

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hope/internal/ids"
	"hope/internal/semantics"
)

// Differential test: the tracker re-implements the semantics machine's
// dependency algebra (Equations 1–24) for concurrent use. Here both are
// driven with the same randomly generated, schedule-free command script
// and must agree on every assumption's final resolution, on which
// processes end definite, and on what each speculative one depends on
// (its current IDO); the tracker's own invariants are checked after
// every command.
//
// The script uses the semantics DSL's resolution subset (guess branches
// that affirm/deny/free_of other assumptions) — no messages, so the
// script is schedule-insensitive when each process runs to completion in
// turn, which lets the machine side execute round-robin while the tracker
// side executes the equivalent flattened command list.

// cmd is one primitive application by one process.
type cmd struct {
	proc int // 0-based
	op   int // 0 = guess, 1 = affirm, 2 = deny, 3 = free_of
	aid  int // AID index
}

// genScript builds a random command script: each AID is resolved at most
// once (plus possibly once more after rollback, which both sides must
// treat identically), guesses may nest arbitrarily.
func genScript(rng *rand.Rand, procs, aids, length int) []cmd {
	return genWeightedScript(rng, procs, aids, length, [3]float64{0.45, 0.70, 0.90})
}

// genWeightedScript is genScript with the op mix given as cumulative
// shares of guess, affirm and deny; free_of takes the rest.
func genWeightedScript(rng *rand.Rand, procs, aids, length int, mix [3]float64) []cmd {
	script := make([]cmd, 0, length)
	resolved := make([]bool, aids)
	for len(script) < length {
		c := cmd{proc: rng.Intn(procs), aid: rng.Intn(aids)}
		switch r := rng.Float64(); {
		case r < mix[0]:
			c.op = 0
		case r < mix[1]:
			c.op = 1
		case r < mix[2]:
			c.op = 2
		default:
			c.op = 3
		}
		if c.op != 0 {
			if resolved[c.aid] {
				continue // keep scripts §5.2-clean
			}
			resolved[c.aid] = true
		}
		script = append(script, c)
	}
	return script
}

// runTracker applies the script to the tracker, each command in order,
// issued by its process, and reports each AID's final status, which
// processes end definite, each process's current IDO and whether a
// rollback cut the run short (see driveTracker).
func runTracker(t *testing.T, script []cmd, procs, aids int, opts ...Option) (map[int]Resolution, map[int]bool, map[int][]int, bool) {
	t.Helper()
	r := driveTracker(t, script, procs, aids, opts...)
	return r.status, r.definite, r.ido, r.rolled
}

// trackerRun is what driveTracker leaves: AIDs and processes are named by
// their script index.
type trackerRun struct {
	status   map[int]Resolution
	definite map[int]bool
	ido      map[int][]int   // each process's current IDO, sorted
	chains   map[int][][]int // each process's live IDOs, oldest first
	// midChain counts the speculative affirms of an X that some process
	// depended on from before its current interval: the affirm's drain
	// rewrote a chain suffix longer than one interval.
	midChain int
	rolled   bool
}

// driveTracker applies the script to the tracker, each command in order,
// issued by its process. Guesses use the command index as log index.
// Every opened interval carries one commit effect, and whatever the
// script does, one process's effects must be released in interval
// (program) order. opts configure the tracker (the shard-count
// differential tests pass WithShards).
func driveTracker(t *testing.T, script []cmd, procs, aids int, opts ...Option) trackerRun {
	t.Helper()
	tr := New(opts...)
	procIDs := make([]ids.Proc, procs)
	for i := range procIDs {
		procIDs[i] = tr.Register(noopHooks{})
	}
	aidIDs := make([]ids.AID, aids)
	for i := range aidIDs {
		aidIDs[i] = tr.NewAID()
	}
	index := func(xs []ids.AID) []int {
		out := make([]int, 0, len(xs))
		for _, x := range xs {
			out = append(out, slices.Index(aidIDs, x))
		}
		slices.Sort(out)
		return out
	}
	run := trackerRun{
		status:   make(map[int]Resolution, aids),
		definite: make(map[int]bool, procs),
		ido:      make(map[int][]int, procs),
		chains:   make(map[int][][]int, procs),
	}
	released := make([][]ids.Interval, procs)
	for idx, c := range script {
		p, x := procIDs[c.proc], aidIDs[c.aid]
		midChain := c.op != 0 && c.op != 2 && tr.LiveIntervals(p) > 0 && tr.Status(x) == Unresolved &&
			dependsBeforeCurrent(tr, procIDs, x)
		var err error
		switch c.op {
		case 0:
			var out GuessOutcome
			out, err = tr.Guess(p, x, idx)
			if out.Interval.Valid() {
				proc, iv := c.proc, out.Interval
				err = tr.AttachEffect(p, func() { released[proc] = append(released[proc], iv) }, nil)
			}
		case 1:
			err = tr.Affirm(p, x)
		case 2:
			err = tr.Deny(p, x)
		case 3:
			err = tr.FreeOf(p, x)
		}
		switch {
		case err == nil, err == ErrConflict:
		case err == ErrRolledBack:
			// The acting process was rolled back by an earlier command;
			// a real runtime would re-execute it, which the single-shot
			// machine comparison cannot mirror — skip this script.
			run.rolled = true
		default:
			t.Fatalf("cmd %d: %v", idx, err)
		}
		if run.rolled {
			break
		}
		if midChain && err == nil && tr.Status(x) == SpecAffirmed {
			run.midChain++
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after cmd %d: %v\nscript: %+v", idx, err, script)
		}
	}
	for i, ivs := range released {
		if !slices.IsSorted(ivs) {
			t.Fatalf("P%d's commits were released as %v, not in interval order\nscript: %+v", i, ivs, script)
		}
	}
	for i, x := range aidIDs {
		run.status[i] = tr.Status(x)
	}
	for i, p := range procIDs {
		run.definite[i] = tr.Definite(p)
		for iv := tr.procShard(p).procs[p].first; iv != nil; iv = iv.next {
			run.chains[i] = append(run.chains[i], index(iv.ido))
		}
		// A guess rolled back by the last commands resumes with False,
		// which is where the machine already is.
		tr.TakePending(p)
		tags, err := tr.Tag(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(tags) > 0 {
			run.ido[i] = index(tags)
		}
	}
	return run
}

// dependsBeforeCurrent reports whether some process depends on x from an
// interval before its current one. The test is single-threaded, so it
// reads the chains without the shard locks.
func dependsBeforeCurrent(tr *Tracker, procs []ids.Proc, x ids.AID) bool {
	for _, p := range procs {
		cur := tr.procShard(p).procs[p].last
		if cur != nil && cur.prev != nil && hasAID(cur.prev.ido, x) {
			return true
		}
	}
	return false
}

type noopHooks struct{}

func (noopHooks) NotifyRollback() {}

// runMachine compiles the script into one DSL program per process and
// runs it (see driveMachine), reporting each AID's final status, which
// processes end definite, each process's current IDO and whether the
// machine replayed.
func runMachine(t *testing.T, script []cmd, procs, aids int) (map[int]semantics.Resolution, map[int]bool, map[int][]int, bool) {
	t.Helper()
	r := driveMachine(t, script, procs, aids)
	return r.status, r.definite, r.ido, r.replayed
}

// machineRun is what driveMachine leaves, named like trackerRun's.
type machineRun struct {
	status   map[int]semantics.Resolution
	definite map[int]bool
	ido      map[int][]int
	chains   map[int][][]int
	replayed bool
}

// driveMachine compiles the script into one DSL program per process and
// interleaves them so command order matches the script's global order:
// each process's program is its subsequence of commands, and a scripted
// scheduler steps the owning process once per command.
//
// The tracker has no control flow, so the machine programs use flat
// guesses (no branches); after a rollback the machine re-executes a
// process's suffix, which the tracker side cannot mirror — scripts where
// any rollback hits a process with commands after the rolled-back guess
// are filtered out by the caller via the rollback census.
func driveMachine(t *testing.T, script []cmd, procs, aids int) machineRun {
	t.Helper()
	perProc := make([][]semantics.Op, procs)
	for _, c := range script {
		var op semantics.Op
		name := fmt.Sprintf("X%d", c.aid)
		switch c.op {
		case 0:
			op = semantics.OpGuess{AID: name}
		case 1:
			op = semantics.OpAffirm{AID: name}
		case 2:
			op = semantics.OpDeny{AID: name}
		case 3:
			op = semantics.OpFreeOf{AID: name}
		}
		perProc[c.proc] = append(perProc[c.proc], op)
	}
	prog := &semantics.Program{Procs: perProc}
	m, err := semantics.New(prog)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}

	// Scripted schedule: step each command's owner once, in order. A
	// rollback rewinds a process's pc, after which the remaining steps
	// re-execute earlier ops — the machine-side history then diverges
	// from the single-shot tracker run, so report divergence.
	pcs := make([]int, procs)
	run := machineRun{
		status:   make(map[int]semantics.Resolution, aids),
		definite: make(map[int]bool, procs),
		ido:      make(map[int][]int, procs),
		chains:   make(map[int][][]int, procs),
	}
	for _, c := range script {
		if m.Halted(c.proc) {
			run.replayed = true
			break
		}
		before := m.PC(c.proc)
		if before < pcs[c.proc] {
			run.replayed = true
			break
		}
		m.Step(c.proc)
		pcs[c.proc] = before + 1
	}
	// Run out any remaining steps (processes whose pc was rewound).
	for !m.Done() && len(m.Runnable()) > 0 {
		run.replayed = true
		m.Step(m.Runnable()[0])
	}

	for i := 0; i < aids; i++ {
		if info, ok := m.AIDByName(fmt.Sprintf("X%d", i)); ok {
			run.status[i] = info.Status
		}
	}
	names := make(map[ids.AID]int, aids)
	for _, a := range m.AIDs() {
		var i int
		if _, err := fmt.Sscanf(a.Name, "X%d", &i); err == nil {
			names[a.ID] = i
		}
	}
	intervals := make(map[ids.Interval][]int)
	for _, iv := range m.Intervals() {
		var ido []int
		for _, x := range iv.IDO {
			ido = append(ido, names[x])
		}
		slices.Sort(ido)
		intervals[iv.ID] = ido
	}
	for i := 0; i < procs; i++ {
		cur := m.CurrentInterval(i)
		run.definite[i] = !cur.Valid()
		if cur.Valid() {
			run.ido[i] = intervals[cur]
		}
		spec := m.SpecSet(i)
		slices.Sort(spec)
		for _, iv := range spec {
			run.chains[i] = append(run.chains[i], intervals[iv])
		}
	}
	return run
}

func sameResolution(a Resolution, b semantics.Resolution) bool {
	switch a {
	case Unresolved:
		return b == semantics.Unresolved
	case Affirmed:
		return b == semantics.Affirmed
	case SpecAffirmed:
		return b == semantics.SpecAffirmed
	case Denied:
		return b == semantics.Denied
	}
	return false
}

func TestDifferentialTrackerVsMachine(t *testing.T) {
	const procs, aids, length = 3, 4, 14
	checked, deep := 0, 0 // deep: a process ends depending on two AIDs or more
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := genScript(rng, procs, aids, length)

		mStatus, mDef, mIDO, replayed := runMachine(t, script, procs, aids)
		if replayed {
			// A rollback re-executed machine-side ops the tracker run
			// will not see; the histories are legitimately different.
			continue
		}
		tStatus, tDef, tIDO, tRolled := runTracker(t, script, procs, aids)
		if tRolled {
			continue
		}

		for i := 0; i < aids; i++ {
			ms, seen := mStatus[i]
			if !seen {
				ms = semantics.Unresolved
			}
			if !sameResolution(tStatus[i], ms) {
				t.Fatalf("seed %d: AID X%d tracker=%v machine=%v\nscript: %+v",
					seed, i, tStatus[i], ms, script)
			}
		}
		for i := 0; i < procs; i++ {
			if tDef[i] != mDef[i] {
				t.Fatalf("seed %d: P%d definite tracker=%v machine=%v\nscript: %+v",
					seed, i, tDef[i], mDef[i], script)
			}
			if !slices.Equal(tIDO[i], mIDO[i]) {
				t.Fatalf("seed %d: P%d IDO tracker=%v machine=%v\nscript: %+v",
					seed, i, tIDO[i], mIDO[i], script)
			}
			if len(tIDO[i]) > 1 {
				deep++
			}
		}
		checked++
	}
	if checked < 100 || deep < 20 {
		t.Fatalf("only %d rollback-free scripts checked, %d multi-AID IDOs compared; generator too rollback-heavy", checked, deep)
	}
	t.Logf("agreed on %d scripts, %d multi-AID IDOs", checked, deep)
}

// TestDifferentialTrackerVsMachineDeep is the differential on deep
// chains: ten assumptions, forty commands, three in four of them guesses,
// so a process's chain grows well past the four intervals the shallow
// scripts reach. Each process's whole live chain — every interval's IDO,
// oldest first — must match the machine's, so a DOM that lost track of an
// interval between a process's first dependence on X and its current
// interval shows up as a wrong IDO. The scripts must include speculative
// affirms whose drain rewrites more than a process's current interval.
func TestDifferentialTrackerVsMachineDeep(t *testing.T) {
	const procs, aids, length = 3, 10, 40
	mix := [3]float64{0.75, 0.90, 0.95}
	checked, deep, midChain := 0, 0, 0 // deep: IDOs of four AIDs or more
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := genWeightedScript(rng, procs, aids, length, mix)

		m := driveMachine(t, script, procs, aids)
		if m.replayed {
			continue
		}
		r := driveTracker(t, script, procs, aids)
		if r.rolled {
			continue
		}
		for i := 0; i < aids; i++ {
			ms, seen := m.status[i]
			if !seen {
				ms = semantics.Unresolved
			}
			if !sameResolution(r.status[i], ms) {
				t.Fatalf("seed %d: AID X%d tracker=%v machine=%v\nscript: %+v",
					seed, i, r.status[i], ms, script)
			}
		}
		for i := 0; i < procs; i++ {
			if r.definite[i] != m.definite[i] {
				t.Fatalf("seed %d: P%d definite tracker=%v machine=%v\nscript: %+v",
					seed, i, r.definite[i], m.definite[i], script)
			}
			if !slices.EqualFunc(r.chains[i], m.chains[i], slices.Equal) {
				t.Fatalf("seed %d: P%d chain tracker=%v machine=%v\nscript: %+v",
					seed, i, r.chains[i], m.chains[i], script)
			}
			for _, ido := range r.chains[i] {
				if len(ido) >= 4 {
					deep++
				}
			}
		}
		midChain += r.midChain
		checked++
	}
	t.Logf("agreed on %d scripts, %d IDOs of four AIDs or more, %d mid-chain speculative affirms", checked, deep, midChain)
	if checked < 50 || deep < 50 || midChain < 10 {
		t.Fatalf("only %d rollback-free scripts, %d IDOs of four AIDs or more, %d mid-chain speculative affirms; want 50, 50, 10", checked, deep, midChain)
	}
}
