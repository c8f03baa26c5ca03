#!/bin/sh
# check.sh — the full verification tier, in dependency order:
# compile, gofmt, vet, check every process body against the replay
# contract with hopevet, check that workloads are defined once and that
# the engine logs and blocks in one place each, then the race-enabled
# test suite. Run from anywhere; it cds to the repo root.
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
# client of them. A second log append, cursor advance or cond wait is a
# per-primitive copy coming back; the names are the fields and helpers
# the one wait value replaced.
echo "== one logged decision, one blocking wait"
engine=$(ls internal/engine/*.go | grep -v '_test\.go$')
expect() {
	n=$(grep -ohE "$1" $engine | wc -l | tr -d ' ')
	if [ "$n" != "$2" ]; then
		echo "internal/engine: /$1/ occurs $n times, want $2" >&2
		exit 1
	fi
}
expect 'append\(p\.log' 1
expect 'p\.replay\+\+' 1
expect 'p\.cond\.Wait\(\)' 2
expect 'entryTimeout|waitSettled|waitPred|waitAID|waitDeadline|addSettledWaiter' 0

echo "== go test -race ./..."
go test -race ./...

echo "check.sh: all stages passed"
