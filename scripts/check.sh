#!/bin/sh
# check.sh — the full verification tier, in dependency order:
# compile, gofmt, vet, check every process body against the replay
# contract with hopevet, check that workloads are defined once and that
# the engine logs and blocks in one place each, the tracker states each
# resolution rule once, a message fault is decided once, a wire hop
# allocates only what it hands over (including the alloc budgets, run
# without the race detector, which skips them), payloads cross without
# gob and each claim has one evidence path, then the race-enabled test
# suite. Run from anywhere; it cds to the repo root.
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
expect() { # expect <package dir> <regexp> <occurrences in its non-test files>
	n=$(grep -ohE "$2" $(ls "$1"/*.go | grep -v '_test\.go$') | wc -l | tr -d ' ')
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
# (affirmLocked), one definite deny (denyDefiniteLocked, the only caller
# of rollbackDependentsLocked), no second system-verdict path, one
# assumption-record constructor. A second hit is a per-entry-point copy
# coming back. Its dependency sets are slices held by value, IDOs
# sorted: an import of internal/sets is a heap-held, linearly searched
# set coming back (TestTrackerAllocBudget prices it).
echo "== each equation once, dependency sets without maps"
expect internal/tracker 'stats\.DefiniteDenies\+\+' 1
expect internal/tracker 'stats\.DefiniteAffirms\+\+' 1
expect internal/tracker 'rollbackDependentsLocked\(a' 2
expect internal/tracker 'applyVerdictLocked' 0
expect internal/tracker '&aidState\{' 1
expect internal/tracker '"hope/internal/sets"' 0

# A message fault is decided in one place: the runtime's route draws
# drop, delay and dup once per live send, before it splits local from
# remote, and the wire only carries the delay it was handed. A second
# draw, or a fault plan in the transport, is a second fault plumbing
# coming back.
echo "== one fault decision per message"
expect internal/engine 'DropNow|DupNow|DelayNow' 3
expect internal/wire '"hope/internal/fault"' 0

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

echo "== go test -race ./..."
go test -race ./...

echo "check.sh: all stages passed"
