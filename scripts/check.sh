#!/usr/bin/env bash
# Tier-1 gate for the repository (see README.md): formatting, vet, build,
# the full test suite, vet + tests of the separate benchmark module, a
# short-mode pass under the race detector, a racy
# re-run of the comm fault/recovery protocol tests, a one-iteration smoke
# run of the apply-path benchmarks, and short fuzz smoke passes over the
# decomposition index math and the checkpoint decoder.
# Every PR must leave this script exiting 0.
#
# Usage: scripts/check.sh  (from the repository root or any subdirectory)
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== benchmark module: vet + test (root go build skips it) =="
(cd benchmark && go vet ./... && go test ./...)

echo "== operator representation equivalence =="
go test -run='^TestOpEquivalence$' -count=1 ./internal/op

echo "== go test -short -race =="
go test -short -race ./...

echo "== fault/recovery protocol under -race =="
go test -race -run 'Fault|Reliable|Migrate|Recv' ./internal/comm ./internal/mpm

echo "== 64-rank fault-injection soak under -race (bounded: -short) =="
go test -short -race -run 'TestSoakReliableExchange64Ranks' ./internal/comm

echo "== pipelined Krylov + coarse agglomeration under -race =="
go test -race -run 'TestPipelined|TestDistMGAgg|TestAllReduceSumVec' ./internal/krylov ./internal/mg ./internal/comm

echo "== f32/f64 equivalence + blocked smoother determinism under -race =="
go test -race \
    -run 'TestF32OpEquivalence|TestResidentMatchesTensor|TestResidentDeterminism|TestBlockedChebyshevBitIdentical|TestMGBlockedVCycleBitIdentical|TestMGF32Converges|TestDistMGBlockedMatchesSerial|TestBlockedSolveMatchesUnblocked|TestF32PreconditionedConvergence' \
    ./internal/op ./internal/fem ./internal/mg ./internal/stokes

echo "== parallel MPM + amortized solver setup under -race =="
go test -race \
    -run 'TestProjectorMatchesSerialAnyWorkers|TestProjectorInvalidate|TestLocateAllParallelMatchesSerial|TestBucketedNearestMatchesScan|TestCachedSetupMatchesColdBuild|TestKrylovWarmStart' \
    ./internal/mpm ./internal/model

echo "== blocked smoother bench smoke (fails on >10% blocked-vs-unblocked regression) =="
go run ./cmd/ptatin-opcost -vcycle -m 12 -levels 2 -reps 3 -vcycle-parity=false -vcycle-gate 1.1 > /dev/null

echo "== scenario smoke: every registered spec, 2 steps, shared + distributed =="
go run ./cmd/ptatin-run -smoke -workers 2

echo "== rank-distributed solve under -race =="
go run -race ./cmd/ptatin-scaling -ranks 2x1x1 -grids 8

echo "== scaling sweep smoke (bounded rank count) =="
go run ./cmd/ptatin-scaling -sweep -sweep-max-ranks 8

echo "== benchmark smoke =="
go test -run='^$' -bench=Apply -benchtime=1x ./...

echo "== fuzz smoke =="
go test ./internal/comm -run='^$' -fuzz=FuzzDecompIndexMath -fuzztime=5s
go test ./internal/chkpt -run='^$' -fuzz=FuzzDecode -fuzztime=5s

echo "OK"
