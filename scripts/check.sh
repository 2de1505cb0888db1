#!/bin/sh
# check.sh - the repository's full verification gate.
#
# Runs, in order: build, go vet (default and -tags lpdense), a gofmt check,
# the repo's own static-analysis pass (tcrlint), the unit tests under the
# race detector, the dense-oracle configuration (-tags lpdense: engine
# equivalence, checkpoint, warm-start, Pareto, flow-decomposition and 2TURN
# path-LP tests), the fault-injection suites (-tags lpchaos for the solver,
# -tags storechaos for the storage crash-consistency harness), the daemon
# e2e and client retry suites, the online design loop (observe ingest,
# drift-retune e2e, restart resume, plus the lpchaos re-solve-failure case),
# the benchmark module (perfbench: vet and tests, so an internal API it uses
# cannot vanish unnoticed), the committed results/*.txt regenerated byte for
# byte (scripts/results.sh), and a short fuzz smoke over the fuzz targets.
# Any failure aborts with a nonzero exit.
#
# Usage: scripts/check.sh [fuzztime]
#   fuzztime   duration for each fuzz smoke (default 5s; "0" skips fuzzing)
set -eu

cd "$(dirname "$0")/.."
FUZZTIME="${1:-5s}"

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go vet -tags lpdense ./..."
go vet -tags lpdense ./...

echo "==> gofmt -l (every Go file must be gofmt-clean)"
UNFORMATTED=$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt: these files need formatting (run gofmt -w):"
	echo "$UNFORMATTED"
	exit 1
fi

echo "==> tcrlint -tests ./..."
go run ./cmd/tcrlint -tests ./...

echo "==> go test -race ./... (short mode)"
go test -race -short -timeout 30m ./...

echo "==> dense oracle configuration (-tags lpdense)"
go test -tags lpdense -count=1 ./internal/lp ./internal/design -run 'Equiv|Property|FullLP|Checkpoint|WarmStart|Pareto|Decompose|TwoTurn'

echo "==> go test -tags lpchaos ./internal/... (fault injection)"
go test -tags lpchaos -timeout 10m ./internal/...

echo "==> storage chaos + crash-consistency harness (-tags storechaos, race)"
go test -race -count=1 -tags "storechaos lpchaos" -timeout 10m ./internal/store ./internal/serve

echo "==> daemon e2e (artifact store + tcrd serving path + CLI parity, race)"
go test -race -count=1 -timeout 10m ./internal/store ./internal/serve ./cmd/tcr

echo "==> online design loop (observe ingest + drift retune e2e + restart, race)"
go test -race -count=1 -timeout 10m -run 'Online|Observe' ./internal/serve ./internal/online

echo "==> online re-solve failure chaos (-tags lpchaos)"
go test -tags lpchaos -count=1 -timeout 10m -run 'OnlineResolveFailureChaos' ./internal/serve

echo "==> client retry/backoff/hedging suite (race)"
go test -race -count=1 -timeout 5m ./internal/client

echo "==> benchmark module (perfbench: go vet + go test)"
(cd perfbench && go vet ./... && go test ./...)

echo "==> committed results regenerate byte for byte (scripts/results.sh)"
sh scripts/results.sh

echo "==> bench smoke (-benchtime=1x)"
go test . -run '^$' -bench BenchmarkFigure1ParetoCurve -benchtime 1x >/dev/null
go test ./internal/lint -run '^$' -bench BenchmarkLintModule -benchtime 1x >/dev/null

# Soft perf gate: compare a 1x bench smoke of the LP engine suite against
# the committed BENCH_lp.json. A 1x run is noisy, so the threshold is wide
# (3x) and a regression warns without failing the gate; refresh the
# baseline with scripts/bench.sh when a slowdown is intentional.
echo "==> bench diff vs BENCH_lp.json (soft gate, threshold 3x)"
if ! go test ./internal/lp -run '^$' -bench . -benchtime 1x -benchmem \
	| go run ./cmd/benchjson -diff BENCH_lp.json -threshold 3; then
	echo "WARNING: bench smoke regressed vs BENCH_lp.json (soft gate, not failing check)"
fi

# The same soft gate for the flit simulator against BENCH_sim.json.
echo "==> bench diff vs BENCH_sim.json (soft gate, threshold 3x)"
if ! go test . -run '^$' -bench 'BenchmarkSimulator$|BenchmarkFindSaturationK8$' -benchtime 1x -benchmem -cpu 1 \
	| go run ./cmd/benchjson -diff BENCH_sim.json -threshold 3; then
	echo "WARNING: bench smoke regressed vs BENCH_sim.json (soft gate, not failing check)"
fi

# The same soft gate for the evaluator against BENCH_eval.json.
echo "==> bench diff vs BENCH_eval.json (soft gate, threshold 3x)"
if ! go test ./internal/eval ./internal/serve -run '^$' -bench 'BenchmarkChannelLoads|BenchmarkAvgCaseK8$|BenchmarkColdEval$' -benchtime 1x -benchmem -cpu 1 \
	| go run ./cmd/benchjson -diff BENCH_eval.json -threshold 3; then
	echo "WARNING: bench smoke regressed vs BENCH_eval.json (soft gate, not failing check)"
fi

if [ "$FUZZTIME" != "0" ]; then
	echo "==> fuzz smoke: FuzzReadMPS ($FUZZTIME)"
	go test ./internal/lp -run='^$' -fuzz=FuzzReadMPS -fuzztime="$FUZZTIME"
	echo "==> fuzz smoke: FuzzHungarian ($FUZZTIME)"
	go test ./internal/matching -run='^$' -fuzz=FuzzHungarian -fuzztime="$FUZZTIME"
	echo "==> fuzz smoke: FuzzRecoveryLadder ($FUZZTIME)"
	go test -tags lpchaos ./internal/lp -run='^$' -fuzz=FuzzRecoveryLadder -fuzztime="$FUZZTIME"
	echo "==> fuzz smoke: FuzzStoreManifest ($FUZZTIME)"
	go test ./internal/store -run='^$' -fuzz=FuzzStoreManifest -fuzztime="$FUZZTIME"
fi

echo "==> all checks passed"
