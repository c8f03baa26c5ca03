#!/bin/sh
# check.sh — the full verification tier, in dependency order:
# compile, gofmt, vet, check every process body against the replay
# contract with hopevet, check that workloads are defined once and that
# the engine logs and blocks in one place each, the tracker states each
# resolution rule once and records each dependency once per process,
# each runtime fact is recorded once (obs is the only counter registry
# and nothing reads it back; the admission controller keeps decision
# state only; a Loop's settled state lives in its log; nothing keeps a
# vector clock), settled state
# retires (a terminal assumption keeps verdict bits, not a record; the
# wire forgets a verdict once applied), a message fault is decided
# once, a delivered message is stored once (by value, in its receiver's
# replay log), a wire hop allocates only what it hands over (including
# the alloc budgets, run without the race detector, which skips them),
# payloads cross without gob, each claim has one evidence path,
# nothing is kept alive by its own tests and each job is done once (no
# second event loop beside the runtime, no hopetop table beside
# obs.Dump), a quiet runtime holds nothing speculative (a rollback
# denies the assumptions it un-mints), a streamed caller runs at most
# one verifier pool ahead of its verdicts, a name exists before its
# Spawn (a send to it waits in its mailbox, so no program orders its
# spawns), then the race-enabled test suite. Run from anywhere; it cds to the repo root.
#
#   ./scripts/check.sh
#
# Each stage must pass before the next runs; the script exits non-zero
# on the first failure.
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== gofmt"
unformatted=$(gofmt -l . | grep -v '/testdata/' || true)
if [ -n "$unformatted" ]; then
	echo "gofmt -l lists:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== hopevet ./..."
go run ./cmd/hopevet ./...

# internal/scenario is the only package that builds an RPC workload or
# joins a runtime to the wire (benchmark/ keeps its own frozen bodies;
# hope_api_test.go checks the façade against a raw node): experiments,
# examples, benchmarks and commands call it, so its oracles cover what
# they run. A hit here is a second copy.
echo "== one workload definition"
copies=$( {
	grep -rlE 'rpc\.(Serve|NewClient)' --include=*.go . |
		grep -vE '^\./(internal/rpc|internal/scenario|benchmark)/' || true
	grep -rl 'wire\.NewNode' --include=*.go . |
		grep -vE '^\./(internal/wire|internal/scenario|benchmark)/|hope_api_test\.go' || true
} )
if [ -n "$copies" ]; then
	echo "workload built outside internal/scenario:" >&2
	echo "$copies" >&2
	exit 1
fi

# internal/engine has one logged decision (replayed/logged) and one
# blocking wait (block; park keeps its own loop): every primitive is a
# client of them. A second log push, cursor advance or cond wait is a
# per-primitive copy coming back, and the log is read only through its
# accessors (at, len): an index into it is a flat slice coming back. The
# other names are the fields and helpers the one wait value replaced.
echo "== one logged decision, one blocking wait"
expect() { # expect <package dir or file> <regexp> <occurrences in its non-test files>
	files=$1
	[ -d "$1" ] && files=$(ls "$1"/*.go | grep -v '_test\.go$')
	n=$(grep -ohE "$2" $files | wc -l | tr -d ' ')
	if [ "$n" != "$3" ]; then
		echo "$1: /$2/ occurs $n times, want $3" >&2
		exit 1
	fi
}
expect internal/engine 'p\.log\.push\(' 1
expect internal/engine 'p\.log\[' 0
expect internal/engine 'p\.replay\+\+' 1
expect internal/engine 'p\.cond\.Wait\(\)' 2
expect internal/engine 'entryTimeout|waitSettled|waitPred|waitAID|waitDeadline|addSettledWaiter' 0

# internal/tracker states each rule of Section 5 once (DESIGN.md has the
# equation ↔ function table): one definite affirm with one DOM drain
# (affirmLocked, the one KAffirmed emit), one definite deny
# (denyDefiniteLocked, the one KDenied emit and the only caller of
# rollbackDependentsLocked), no second system-verdict path, one
# assumption-record constructor. A second hit is a per-entry-point copy
# coming back. Its dependency sets are slices held by value, IDOs
# sorted: an import of internal/sets is a heap-held, linearly searched
# set coming back (TestTrackerAllocBudget prices it). A DOM keeps one
# interval per process, the earliest that depends on the assumption:
# dependLocked is its one insert, and opening an interval neither writes
# nor locks the home of an assumption it inherits. A second insert site,
# or open ranging over the enclosing interval's IDO, is the
# per-interval DOM coming back (TestDeepChainAllocBudget prices it).
echo "== each equation once, dependency sets without maps"
expect internal/tracker 'obs\.KDenied,' 1
expect internal/tracker 'obs\.KAffirmed,' 1
expect internal/tracker 'rollbackDependentsLocked\(a' 2
expect internal/tracker 'applyVerdictLocked' 0
expect internal/tracker '&aidState\{' 1
expect internal/tracker '"hope/internal/sets"' 0
expect internal/tracker '\.dom = append\(' 1
expect internal/tracker 'range (cur\.ido|inherited)' 0

# Each runtime fact is recorded once (DESIGN.md, "One counter
# registry"): obs.Metrics is the only counter registry, so a tracker
# Stats, an escalation counter or a per-shard unresolved gauge — or an
# engine or façade re-export of one — is a second count of an obs
# number coming back. The admission controller keeps decision state
# only: a per-site admit/deny/probe counter or a snapshot of them is
# obs's site table kept twice. Nothing reads obs back: a site sink is
# the estimator learning through obs again, and an observer built in
# internal/engine is a private one that sink needed. A Loop's settled
# state is the checkpoint at log[0]: a state copy Loop holds beside
# the log is a second restore path. Nothing keeps a vector clock: the
# wire's nobody read (a node sends Msg.VClock empty), and the trace
# orders events by commit index.
echo "== each fact recorded once"
expect internal/tracker 'type Stats|Stats\(\)|[Ee]scalations|(\bs|\])\.unresolved' 0
expect internal/engine 'TrackerStats|ShardStats' 0
expect . 'type Stats\b' 0
expect internal/wire 'mergeClock|n\.clock|p\.vc|p\.mu\.|\.tick\(' 0
expect internal/policy '\.(admits|denies|probes)\b|SiteEstimate|\) Sites\(' 0
expect internal/obs 'SetSiteSink|\.sink\b' 0
expect internal/engine 'obs\.New\(' 0
expect internal/engine/loop.go 'snapshot|sync\.' 0
expect internal/trace '"hope/internal/vclock"' 0

# Settled assumptions cost bits, not records (DESIGN.md, "Retired
# assumptions"): commitCtx retires each AID a settle made terminal — the
# one delete from a shard's AID table — into verdict bits that nothing
# rebuilds a record from (the one &aidState{ above). The wire keeps no
# state per verdict past its apply: a seen-set is every verdict ever
# broadcast coming back.
echo "== settled state retires"
expect internal/wire 'n\.seen|markSeen' 0
expect internal/tracker 'delete\(s\.aids' 1

# A message fault is decided in one place: the runtime's route draws
# drop, delay and dup once per live send, before it splits local from
# remote, and the wire only carries the delay it was handed. A second
# draw, or a fault plan in the transport, is a second fault plumbing
# coming back.
echo "== one fault decision per message"
expect internal/engine 'DropNow|DupNow|DelayNow' 3
expect internal/wire '"hope/internal/fault"' 0

# A delivered message is stored once, by value, in storage its receiver
# owns (DESIGN.md, "Logged decisions"): route, the delivery scheduler
# and InjectRemote carry an rmsg by value, the mailbox holds values, and
# the replay log's message store is written by replayLog.push alone. A
# boxed message, or a second store push, is the heap object per message
# coming back (TestEngineJobAllocBudget prices it at three allocations
# a job; the release tests check that a cut or a compaction frees it).
echo "== a message is stored once"
expect internal/engine '&rmsg\{' 0
expect internal/engine 'msgs\.push\(' 1

# A wire hop allocates only what the receiver keeps (DESIGN.md, "Buffer
# ownership"): frames are built in recycled per-link buffers by the
# typed appendMsg/appendVerdict, and read into one reused buffer per
# link. A boxed frame built in a fresh buffer, or a body buffer per
# read, is the per-message garbage coming back. The alloc budgets price
# the rest; under -race below they only log their counts.
echo "== a wire hop allocates only what it hands over"
expect internal/wire 'AppendFrame\(nil, (Msg|Verdict)' 0
expect internal/wire 'make\(\[\]byte, n\)' 0

# Payloads cross as self-contained segments of one codec compiled per
# type at registration (DESIGN.md, "The payload codec"): a link holds no
# payload state. A gob import, a stream marker or a gob method on the
# engine's AID is the per-link stream, or a second codec, coming back.
echo "== payloads cross without gob"
gobs=$(grep -rlF '"encoding/gob"' --include='*.go' . | grep -v '/testdata/' || true)
if [ -n "$gobs" ]; then
	echo "encoding/gob imported by:" >&2
	echo "$gobs" >&2
	exit 1
fi
expect internal/wire 'streamOpen|streamNext' 0
expect internal/engine 'GobEncode|GobDecode' 0

# The engine's message path allocates only what it records (DESIGN.md,
# "Waking parked processes"): a parked process is a resolution waiter,
# not a commit effect on every interval it opens, and a message tag
# shares its sender's IDO. A wake effect per interval coming back costs
# TestEngineJobAllocBudget two more allocations per job, a tag copy one;
# a replay log that copies itself as it grows fails its byte budget, and
# the log's own tests pin the 32-byte entry and the allocation-free
# refill of its segments.
echo "== the engine message path allocates only what it records"
expect internal/engine 'watchFinalize|wakeFn' 0
go test -count=1 -run 'AllocBudget|ReplayLog|EntrySize' ./internal/engine ./internal/tracker ./internal/wire

# Each claim has one oracle, named in EXPERIMENTS.md's ledger: a tier-1
# test, a BENCHMARK.json metric or a model-checker theorem. hopebench
# renders tables for the paper's own claims and the substrate
# comparisons (E1, E2, E3, E6–E10) and nothing else. A ninth runner, or
# a package that outgrows 1,000 non-test lines, is a second evidence
# path for a claim coming back.
echo "== one evidence path per claim"
expect internal/experiments 'ID: *"E' 8
n=$(cat $(ls internal/experiments/*.go | grep -v '_test\.go$') | wc -l | tr -d ' ')
if [ "$n" -gt 1000 ]; then
	echo "internal/experiments: $n non-test lines, want at most 1000" >&2
	exit 1
fi

# Nothing outside this module can import internal/, so an exported name
# there that no non-test code calls, and that hope.go does not reach
# through a type alias, is dead code its own tests keep alive. These are
# the names deleted on that rule: occ's transactions and constant-value
# optimistic write (Update is the one optimistic write), rpc's
# predictor types and comparator knob (the WorryWart matches with
# reflect.DeepEqual), the tracker's second settle count beside its shard
# epochs and its unused interval and shard-count accessors, and the set
# and clock algebra that neither the semantics machine nor the benchmark
# probes call. A hit is one of them coming back.
echo "== nothing kept alive by its own tests"
expect internal/occ 'func \(s \*Session\) (Txn|WriteOptimistic)|txnReq|type Tx\b' 0
expect internal/rpc 'StreamCallP|Predictor|WithComparator|c\.equal' 0
expect internal/tracker 'settleSeq|\) Epoch\(|CurrentInterval|DefaultShards' 0
expect internal/sets '\) (Minus|Intersect|filter|SubsetOf|Equal|RemoveAll)\(' 0
expect internal/vclock '\) (Get|LEQ|Before|Concurrent|Equal|String)\(' 0

# Each job is done once. §3.1's numbers are link arithmetic, computed in
# closed form by E2: a second discrete-event loop beside the runtime
# (internal/netsim, or an import of it) is a second simulator coming
# back. obs.Dump is hopetop's one renderer: a per-shard, per-link or
# per-site table, or a fault line from the plan's own counts, printed
# beside the dump is the same numbers rendered twice.
echo "== each job done once: one event loop, one renderer"
if [ -e internal/netsim ] || grep -rlF '"hope/internal/netsim"' --include='*.go' . ; then
	echo "internal/netsim is back, or imported (E2 computes §3.1 in closed form)" >&2
	exit 1
fi
expect cmd/hopetop 'shardTable|peersTable|sitesTable|Counts\(' 0

# A quiet runtime holds nothing speculative (DESIGN.md, "Assumptions a
# rollback un-mints"): a rollback's cut denies the AIDs whose NewAID
# entries it drops, in the one DenyUnminted call, and no other cut
# does (compaction and crash replay keep their AIDs live).
# scenario.Settle fails a run that quiesces holding an assumption
# record or a live interval. The boundary tests, the quadratic print
# case and the wire peer's run go three times under the race detector.
echo "== a quiet runtime holds nothing speculative"
expect internal/engine 'DenyUnminted\(' 1
go test -race -count=3 -run 'Unminted|RetiresOrphaned|SettleRejects' ./internal/engine ./internal/scenario

# A streamed caller runs at most one verifier pool ahead of its verdicts
# (DESIGN.md, "Speculation horizon = verifier pool"): StreamCall waits
# for the call its verifier is still checking, in the one unlogged
# AwaitTerminal call, which reuses the one blocking wait above. It is a
# package function the façade does not re-export, so hope.Proc's method
# set does not grow. The wait's own tests, the horizon's depth and bound
# and the held-reply misprediction test go three times under the race
# detector.
echo "== a streamed caller runs one verifier pool ahead"
expect internal/rpc 'engine\.AwaitTerminal\(' 1
expect hope.go 'AwaitTerminal' 0
go test -race -count=3 -run 'AwaitTerminal|Horizon|TestStreamCallMispredictionRollsBack' ./internal/engine ./internal/rpc ./internal/scenario

# A name exists before its Spawn (DESIGN.md, "A name exists before its
# Spawn"): a send to a name with no process parks in that name's
# mailbox, which Spawn adopts, so spawn order is no part of a program's
# correctness. A start message sent once a ring is spawned, a wire error
# for a name placed here, or a comment explaining why receivers are
# spawned first is a spawn-order workaround coming back. The
# before-Spawn tests and the tests whose spawn order was reversed go
# three times under the race detector.
echo "== a name exists before its Spawn"
expect internal/recovery 'ringStart' 0
expect internal/wire 'placed here but not spawned' 0
order=$(grep -rnE 'Receivers? first|Receivers before|ErrUnknownDest is not retried|not yet spawned|unspawned name|judge before the worker|sink before the workers' --include='*.go' . |
	grep -v '^\./benchmark/' || true)
if [ -n "$order" ]; then
	echo "spawn-order comments:" >&2
	echo "$order" >&2
	exit 1
fi
go test -race -count=3 -run 'BeforeSpawn|NeverSpawned|SendUnknownDest|WaitErrorOrder|ManyProcessesStress|PlacedNameWaitsForSpawn' ./internal/engine ./internal/wire
go test -race -count=3 -run 'TestStorm(WireMatchesSingleProcess|FaultSoak|ShardDifferential)$|E4|SpeculationPoliciesAgree' ./internal/scenario ./internal/experiments .
go test -race -count=3 ./internal/recovery

echo "== go test -race ./..."
go test -race ./...

echo "check.sh: all stages passed"
