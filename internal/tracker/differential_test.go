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
	script := make([]cmd, 0, length)
	resolved := make([]bool, aids)
	for len(script) < length {
		c := cmd{proc: rng.Intn(procs), aid: rng.Intn(aids)}
		switch r := rng.Float64(); {
		case r < 0.45:
			c.op = 0
		case r < 0.70:
			c.op = 1
		case r < 0.90:
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
// issued by its process. Guesses use the command index as log index.
// Every opened interval carries one commit effect, and whatever the
// script does, one process's effects must be released in interval
// (program) order. opts configure the tracker (the shard-count
// differential tests pass WithShards).
func runTracker(t *testing.T, script []cmd, procs, aids int, opts ...Option) (map[int]Resolution, map[int]bool, map[int][]int, bool) {
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
	rolled := false
	released := make([][]ids.Interval, procs)
	for idx, c := range script {
		p, x := procIDs[c.proc], aidIDs[c.aid]
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
			rolled = true
		default:
			t.Fatalf("cmd %d: %v", idx, err)
		}
		if rolled {
			break
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
	status := make(map[int]Resolution, aids)
	for i, x := range aidIDs {
		status[i] = tr.Status(x)
	}
	definite := make(map[int]bool, procs)
	ido := make(map[int][]int, procs)
	for i, p := range procIDs {
		definite[i] = tr.Definite(p)
		// A guess rolled back by the last commands resumes with False,
		// which is where the machine already is.
		tr.TakePending(p)
		tags, err := tr.Tag(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range tags {
			ido[i] = append(ido[i], slices.Index(aidIDs, x))
		}
		slices.Sort(ido[i])
	}
	return status, definite, ido, rolled
}

type noopHooks struct{}

func (noopHooks) NotifyRollback() {}

// runMachine compiles the script into one DSL program per process and
// interleaves them so command order matches the script's global order:
// each process's program is its subsequence of commands, and a scripted
// scheduler steps the owning process once per command.
//
// The tracker has no control flow, so the machine programs use flat
// guesses (no branches); after a rollback the machine re-executes a
// process's suffix, which the tracker side cannot mirror — scripts where
// any rollback hits a process with commands after the rolled-back guess
// are filtered out by the caller via the rollback census.
func runMachine(t *testing.T, script []cmd, procs, aids int) (map[int]semantics.Resolution, map[int]bool, map[int][]int, bool) {
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
	replayed := false
	for _, c := range script {
		if m.Halted(c.proc) {
			replayed = true
			break
		}
		before := m.PC(c.proc)
		if before < pcs[c.proc] {
			replayed = true
			break
		}
		m.Step(c.proc)
		pcs[c.proc] = before + 1
	}
	// Run out any remaining steps (processes whose pc was rewound).
	for !m.Done() && len(m.Runnable()) > 0 {
		replayed = true
		m.Step(m.Runnable()[0])
	}

	status := make(map[int]semantics.Resolution, aids)
	for i := 0; i < aids; i++ {
		if info, ok := m.AIDByName(fmt.Sprintf("X%d", i)); ok {
			status[i] = info.Status
		}
	}
	definite := make(map[int]bool, procs)
	ido := make(map[int][]int, procs)
	names := make(map[ids.AID]int, aids)
	for _, a := range m.AIDs() {
		var i int
		if _, err := fmt.Sscanf(a.Name, "X%d", &i); err == nil {
			names[a.ID] = i
		}
	}
	for i := 0; i < procs; i++ {
		cur := m.CurrentInterval(i)
		definite[i] = !cur.Valid()
		for _, iv := range m.Intervals() {
			if iv.ID != cur {
				continue
			}
			for _, x := range iv.IDO {
				ido[i] = append(ido[i], names[x])
			}
			slices.Sort(ido[i])
		}
	}
	return status, definite, ido, replayed
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
