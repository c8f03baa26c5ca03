#!/bin/sh
# check.sh — the full verification tier, in dependency order:
# compile, vet, check every process body against the replay contract
# with hopevet, then the race-enabled test suite. Run from anywhere; it
# cds to the repo root.
#
#   ./scripts/check.sh
#
# Each stage must pass before the next runs; the script exits non-zero
# on the first failure.
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== hopevet ./..."
go run ./cmd/hopevet ./...

echo "== go test -race ./..."
go test -race ./...

# The checkpoint oracle, by name: the race suite above already ran
# these, but a dedicated stage keeps the recovery invariant legible —
# committed output byte-identical with checkpoints off / every event /
# coarse, and under 32 crash-storm seeds with checkpointed recovery.
echo "== checkpoint oracle (differential + crash-storm soak)"
go test ./internal/scenario/ -run 'TestScenarioCheckpointDifferential|TestJournalCheckpoint|TestStormCheckpointFaultSoak' -count=1

echo "check.sh: all stages passed"
