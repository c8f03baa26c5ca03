package tracker

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"hope/internal/ids"
)

// TestShardConfig pins the shard-count normalization: powers of two,
// clamped, defaulting from GOMAXPROCS.
func TestShardConfig(t *testing.T) {
	cases := []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {63, 64}, {64, 64},
		{100, 64}, {1 << 20, 64},
	}
	for _, c := range cases {
		if got := New(WithShards(c.in)).Shards(); got != c.want {
			t.Errorf("WithShards(%d): got %d shards, want %d", c.in, got, c.want)
		}
	}
	if got := New().Shards(); got != DefaultShards() {
		t.Errorf("default shards = %d, want DefaultShards() = %d", got, DefaultShards())
	}
	if d := DefaultShards(); d&(d-1) != 0 || d < 1 || d > MaxShards {
		t.Errorf("DefaultShards() = %d: not a power of two in [1, %d]", d, MaxShards)
	}
}

// TestDifferentialShardCounts runs the random resolution scripts of the
// tracker-vs-machine differential against trackers with 1, 2, 8, and 64
// shards: every final resolution, every definiteness verdict, and every
// speculative process's IDO must be identical. Shard count is a scaling knob,
// never a semantic one.
func TestDifferentialShardCounts(t *testing.T) {
	const procs, aids, length = 4, 6, 20
	shardCounts := []int{2, 8, 64}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := genScript(rng, procs, aids, length)

		refStatus, refDef, refIDO, refRolled := runTracker(t, script, procs, aids, WithShards(1))
		for _, n := range shardCounts {
			status, def, ido, rolled := runTracker(t, script, procs, aids, WithShards(n))
			if rolled != refRolled {
				t.Fatalf("seed %d shards=%d: rolled=%v, 1-shard rolled=%v\nscript: %+v",
					seed, n, rolled, refRolled, script)
			}
			for i := 0; i < aids; i++ {
				if status[i] != refStatus[i] {
					t.Fatalf("seed %d shards=%d: AID X%d = %v, 1-shard = %v\nscript: %+v",
						seed, n, i, status[i], refStatus[i], script)
				}
			}
			for i := 0; i < procs; i++ {
				if def[i] != refDef[i] || !slices.Equal(ido[i], refIDO[i]) {
					t.Fatalf("seed %d shards=%d: P%d definite=%v IDO=%v, 1-shard definite=%v IDO=%v\nscript: %+v",
						seed, n, i, def[i], ido[i], refDef[i], refIDO[i], script)
				}
			}
		}
	}
}

// TestDenyAllUnresolvedShardIndependent leaves a random mix of open
// speculation on trackers of different shard counts and checks the drain
// takes the same actions and lands every tracker in the same final state:
// the drain sweeps candidates in global identifier order, so shard count
// must not leak into its behavior.
func TestDenyAllUnresolvedShardIndependent(t *testing.T) {
	build := func(n int) (*Tracker, []ids.AID, []ids.Proc) {
		tr := New(WithShards(n))
		var aids []ids.AID
		var procs []ids.Proc
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 8; i++ {
			p := tr.Register(noopHooks{})
			procs = append(procs, p)
			for j := 0; j < 4; j++ {
				x := tr.NewAID()
				aids = append(aids, x)
				if _, err := tr.Guess(p, x, i*4+j); err != nil {
					if err == ErrRolledBack {
						// A deny below rolled the chain back; identical on
						// every shard count since the script is identical.
						tr.TakePending(p)
						continue
					}
					t.Fatalf("guess: %v", err)
				}
				// Some speculative affirms/denies to create claims and
				// replacement chains crossing shards.
				switch rng.Intn(3) {
				case 0:
					_ = tr.Affirm(p, x)
				case 1:
					_ = tr.Deny(p, x)
				}
			}
		}
		return tr, aids, procs
	}

	ref, refAids, refProcs := build(1)
	refActions := ref.DenyAllUnresolved()
	for _, n := range []int{4, 64} {
		tr, aids, procs := build(n)
		if actions := tr.DenyAllUnresolved(); actions != refActions {
			t.Fatalf("shards=%d: drain took %d actions, 1-shard took %d", n, actions, refActions)
		}
		for i, x := range aids {
			if got, want := tr.Status(x), ref.Status(refAids[i]); got != want {
				t.Fatalf("shards=%d: post-drain %v = %v, 1-shard = %v", n, x, got, want)
			}
			if tr.Status(x) == Unresolved {
				t.Fatalf("shards=%d: %v still unresolved after drain", n, x)
			}
		}
		for i, p := range procs {
			if !tr.Definite(p) {
				t.Fatalf("shards=%d: %v not definite after drain", n, p)
			}
			_ = refProcs[i]
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("shards=%d: post-drain invariants: %v", n, err)
		}
	}
}

// TestCrossShardSettleStress hammers cross-shard settles under -race:
// processes guess assumptions from a shared pool (so dependency closures
// and spec-affirm replacement chains span shards) while readers classify
// through the epoch cache and the invariant checker interleaves. The
// per-shard generalization of the coherence invariant is checked the same
// way as the single-lock test: at a stable settle sequence number, a
// cached verdict must agree with a fresh classification.
func TestCrossShardSettleStress(t *testing.T) {
	tr := New(WithShards(8))
	const mutators = 8
	const iters = 200

	// Shared AID pool: every mutator guesses and resolves AIDs from the
	// whole pool, so one process's interval depends on assumptions homed
	// on many shards and resolutions cascade across them.
	var poolMu sync.Mutex
	var pool []ids.AID

	var pub struct {
		sync.Mutex
		sets [][]ids.AID
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			p := tr.Register(noopHooks{})
			for i := 0; i < iters; i++ {
				if tr.PendingRollback(p) {
					tr.TakePending(p)
				}
				x := tr.NewAID()
				poolMu.Lock()
				pool = append(pool, x)
				n := len(pool)
				y := pool[rng.Intn(n)]
				poolMu.Unlock()

				// Guess someone's assumption (often another shard's), then
				// resolve a random pool member: cross-shard footprints on
				// both the read and the settle side.
				if _, err := tr.Guess(p, y, i); err != nil {
					if err == ErrRolledBack {
						tr.TakePending(p)
						continue
					}
					t.Errorf("guess: %v", err)
					return
				}
				if tags, err := tr.Tag(p); err == nil && len(tags) > 0 {
					pub.Lock()
					pub.sets = append(pub.sets, tags)
					pub.Unlock()
				}
				var err error
				switch rng.Intn(3) {
				case 0:
					err = tr.Affirm(p, y)
				case 1:
					err = tr.Deny(p, y)
				default:
					err = tr.FreeOf(p, x)
				}
				if err != nil && err != ErrRolledBack && err != ErrConflict {
					t.Errorf("resolve: %v", err)
					return
				}
			}
			tr.TakePending(p)
		}(int64(m + 1))
	}

	var readWG sync.WaitGroup
	for r := 0; r < 4; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			caches := make(map[int]*TagClass)
			rounds := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				rounds++
				pub.Lock()
				sets := pub.sets[:len(pub.sets):len(pub.sets)]
				pub.Unlock()
				for idx, tags := range sets {
					c := caches[idx]
					if c == nil {
						c = &TagClass{}
						caches[idx] = c
					}
					wasSettled := tr.ClassCurrent(c) && c.Settled
					e1 := tr.Epoch()
					s, o := tr.ClassifyCached(tags, c)
					sf, of := tr.Settled(tags)
					e2 := tr.Epoch()
					if e1 == e2 && (s != sf || o != of) {
						t.Errorf("cached (settled=%v orphan=%v) != fresh (settled=%v orphan=%v) at stable settle seq %d",
							s, o, sf, of, e1)
						return
					}
					if wasSettled && !sf {
						t.Errorf("settled verdict regressed")
						return
					}
				}
				if rounds%8 == 0 {
					if err := tr.CheckInvariants(); err != nil {
						t.Errorf("invariants: %v", err)
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	close(done)
	readWG.Wait()

	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("final invariants: %v", err)
	}
	// The shared pool forces closures across the 8 shards; the two-phase
	// settle must have escalated at least once in 1600 mixed operations.
	if tr.Escalations() == 0 {
		t.Log("warning: no lock escalations observed (footprints all stayed home)")
	}
	if tr.DenyAllUnresolved() < 0 {
		t.Fatal("unreachable")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("post-drain invariants: %v", err)
	}
}

// TestClassifyCachedZeroLock pins the headline property of the sharded
// read path: revalidating a warm verdict takes zero lock acquisitions
// and zero allocations. The lock-freedom proof is structural — the test
// holds every shard's write lock and the warm-path ClassifyCached must
// still complete.
func TestClassifyCachedZeroLock(t *testing.T) {
	tr := New(WithShards(8))
	p := tr.Register(noopHooks{})
	x := tr.NewAID()
	if _, err := tr.Guess(p, x, 0); err != nil {
		t.Fatalf("guess: %v", err)
	}
	tags, err := tr.Tag(p)
	if err != nil || len(tags) == 0 {
		t.Fatalf("tag: %v (%d tags)", err, len(tags))
	}
	var warm TagClass
	if s, o := tr.ClassifyCached(tags, &warm); s || o {
		t.Fatalf("expected speculative verdict, got settled=%v orphan=%v", s, o)
	}

	// Zero allocations on the warm path.
	if n := testing.AllocsPerRun(100, func() {
		tr.ClassifyCached(tags, &warm)
	}); n != 0 {
		t.Errorf("warm ClassifyCached allocates %.1f objects/op, want 0", n)
	}

	// Zero lock acquisitions: with every shard write-locked, the warm
	// path must still return (it may only use atomic epoch loads).
	tr.lockW(tr.allMask)
	ret := make(chan struct{})
	go func() {
		tr.ClassifyCached(tags, &warm)
		var settledForever TagClass
		tr.ClassifyCached(nil, &settledForever) // empty tag set: settled, mask 0
		tr.ClassifyCached(nil, &settledForever)
		close(ret)
	}()
	select {
	case <-ret:
	case <-time.After(5 * time.Second):
		tr.unlockW(tr.allMask)
		t.Fatal("warm ClassifyCached blocked on a shard lock")
	}
	tr.unlockW(tr.allMask)

	// Sanity: once a shard the verdict covers advances, the path takes
	// locks again and recomputes.
	if err := tr.Affirm(p, x); err != nil {
		t.Fatalf("affirm: %v", err)
	}
	if s, _ := tr.ClassifyCached(tags, &warm); !s {
		t.Fatal("verdict did not refresh after resolution")
	}
}

// TestShardStats exercises the advisory per-shard snapshot.
func TestShardStats(t *testing.T) {
	tr := New(WithShards(4))
	p := tr.Register(noopHooks{})
	for i := 0; i < 16; i++ {
		x := tr.NewAID()
		if i%2 == 0 {
			if _, err := tr.Guess(p, x, i); err != nil {
				t.Fatalf("guess: %v", err)
			}
			if err := tr.Affirm(p, x); err != nil && err != ErrConflict {
				t.Fatalf("affirm: %v", err)
			}
		}
	}
	stats := tr.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("got %d shard rows, want 4", len(stats))
	}
	totalAIDs, unresolved := 0, 0
	for i, s := range stats {
		if s.Shard != i {
			t.Errorf("row %d has shard index %d", i, s.Shard)
		}
		if s.Epoch == 0 {
			t.Errorf("shard %d epoch is 0 (reserved)", i)
		}
		totalAIDs += s.AIDs
		unresolved += s.Unresolved
	}
	if totalAIDs != 16 {
		t.Errorf("shard AIDs sum to %d, want 16", totalAIDs)
	}
	if unresolved != 8 {
		t.Errorf("unresolved sum = %d, want 8", unresolved)
	}
}

// BenchmarkContendedClassifyShards is the shard-count ablation of the
// contended mixed read/write benchmark: GOMAXPROCS readers revalidate
// warm verdicts while a writer stream resolves fresh assumptions. With
// one shard every resolution invalidates every verdict (shared epoch and
// lock); sharded, a resolution invalidates only verdicts whose walk
// visited its shard.
func BenchmarkContendedClassifyShards(b *testing.B) {
	for _, shards := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			tr := New(WithShards(shards))
			var queues [][]ids.AID
			for i := 0; i < 8; i++ {
				p := tr.Register(noopHooks{})
				x := tr.NewAID()
				if _, err := tr.Guess(p, x, 0); err != nil {
					b.Fatalf("guess: %v", err)
				}
				tags, err := tr.Tag(p)
				if err != nil {
					b.Fatalf("tag: %v", err)
				}
				for j := 0; j < 16; j++ {
					queues = append(queues, tags)
				}
			}
			writer := tr.Register(noopHooks{})
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				for {
					select {
					case <-stop:
						return
					default:
					}
					x := tr.NewAID()
					if err := tr.Affirm(writer, x); err != nil {
						b.Errorf("affirm: %v", err)
						return
					}
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				caches := make([]TagClass, len(queues))
				for pb.Next() {
					for j, tags := range queues {
						tr.ClassifyCached(tags, &caches[j])
					}
				}
			})
		})
	}
	_ = runtime.GOMAXPROCS(0)
}
